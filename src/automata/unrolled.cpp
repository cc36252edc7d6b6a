#include "automata/unrolled.hpp"

#include <algorithm>
#include <cassert>

namespace nfacount {

namespace {

/// Word count of a num_states-bit frontier row.
inline size_t RowWords(int num_states) {
  return (static_cast<size_t>(num_states) + 63) / 64;
}

/// Calls fn(state) for every set bit of a raw word span, ascending.
template <typename Fn>
inline void ForEachSetWord(const uint64_t* words, size_t nwords, Fn&& fn) {
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t bits = words[w];
    while (bits) {
      int b = __builtin_ctzll(bits);
      fn(static_cast<int>(w * 64 + b));
      bits &= bits - 1;
    }
  }
}

/// Shared CSR assembly over a row-visitor: `for_each_edge(q, a, fn)` must call
/// fn(target) for every edge of row (q, a) in ascending target order.
template <typename EdgeSource>
CsrTransitions BuildCsr(const Nfa& nfa, EdgeSource&& edges_of_row) {
  CsrTransitions csr;
  csr.num_states = nfa.num_states();
  csr.alphabet_size = nfa.alphabet_size();
  const size_t rows = static_cast<size_t>(csr.num_states) * csr.alphabet_size;

  csr.offsets.assign(rows + 1, 0);
  for (StateId q = 0; q < csr.num_states; ++q) {
    for (int a = 0; a < csr.alphabet_size; ++a) {
      csr.offsets[csr.Row(q, static_cast<Symbol>(a)) + 1] =
          static_cast<int32_t>(edges_of_row(q, static_cast<Symbol>(a)).size());
    }
  }
  for (size_t r = 0; r < rows; ++r) csr.offsets[r + 1] += csr.offsets[r];

  csr.targets.resize(static_cast<size_t>(csr.offsets[rows]));
  csr.symbols.resize(csr.targets.size());
  for (StateId q = 0; q < csr.num_states; ++q) {
    for (int a = 0; a < csr.alphabet_size; ++a) {
      const Symbol sym = static_cast<Symbol>(a);
      size_t at = static_cast<size_t>(csr.offsets[csr.Row(q, sym)]);
      for (StateId r : edges_of_row(q, sym)) {
        csr.targets[at] = r;
        csr.symbols[at] = sym;
        ++at;
      }
    }
  }

  // Word-parallel row masks, when the m·|Σ| rows of m bits fit the budget.
  const size_t mask_bits = rows * static_cast<size_t>(csr.num_states);
  if (mask_bits > 0 && mask_bits <= CsrTransitions::kMaskBitBudget) {
    csr.row_masks.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      Bitset mask(static_cast<size_t>(csr.num_states));
      for (int32_t e = csr.offsets[r]; e < csr.offsets[r + 1]; ++e) {
        mask.Set(static_cast<size_t>(csr.targets[static_cast<size_t>(e)]));
      }
      csr.row_masks.push_back(std::move(mask));
    }
  }
  return csr;
}

}  // namespace

CsrTransitions CsrTransitions::FromSuccessors(const Nfa& nfa) {
  return BuildCsr(nfa, [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
    return nfa.Successors(q, a);
  });
}

CsrTransitions CsrTransitions::FromPredecessors(const Nfa& nfa) {
  return BuildCsr(nfa, [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
    return nfa.Predecessors(q, a);
  });
}

void CsrTransitions::StepInto(const Bitset& from, Symbol symbol,
                              Bitset* out) const {
  assert(out != nullptr && out->size() == static_cast<size_t>(num_states));
  out->Clear();
  if (has_masks()) {
    // One kernel-table fetch for the whole frontier, not one per set bit.
    const simd::BitsetKernels& kern = simd::ActiveKernels();
    uint64_t* dst = out->mutable_words();
    const size_t nwords = out->words().size();
    from.ForEachSet([&](int q) {
      kern.or_into(dst,
                   row_masks[Row(static_cast<StateId>(q), symbol)].words().data(),
                   nwords);
    });
  } else {
    from.ForEachSet([&](int q) {
      const StateId* end = RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out->Set(static_cast<size_t>(*t));
      }
    });
  }
}

UnrolledNfa::UnrolledNfa(const Nfa* nfa, int n)
    : nfa_(nfa), n_(n) {
  assert(nfa != nullptr);
  assert(nfa->Validate().ok());
  assert(n >= 0);
  classes_ = SymbolClassIndex::Compute(*nfa);
  forward_ = CsrTransitions::FromSuccessors(*nfa);
  reverse_ = CsrTransitions::FromPredecessors(*nfa);
  reachable_.reserve(n + 1);
  Bitset cur(nfa->num_states());
  cur.Set(nfa->initial());
  reachable_.push_back(cur);
  Bitset next(nfa->num_states());
  Bitset step(nfa->num_states());
  for (int level = 1; level <= n; ++level) {
    next.Clear();
    // Class members step identically, so one representative per class covers
    // the union — bit-identical to stepping every symbol.
    for (int c = 0; c < classes_.num_classes(); ++c) {
      forward_.StepInto(cur, classes_.Representative(c), &step);
      next |= step;
    }
    reachable_.push_back(next);
    cur.CopyFrom(next);
  }
}

void UnrolledNfa::PredSetInto(const Bitset& states, Symbol symbol, int level,
                              Bitset* out) const {
  assert(level >= 1 && level <= n_);
  assert(out != nullptr && out->size() == states.size());
  const Bitset& clip = reachable_[level - 1];
  if (reverse_.has_masks()) {
    // Fused OR-and-clip: every mask word is ANDed against the previous
    // level's reachable set as it lands, so `out` never holds dead states.
    // Kernel table fetched once for the whole frontier.
    const simd::BitsetKernels& kern = simd::ActiveKernels();
    uint64_t* dst = out->mutable_words();
    const uint64_t* clip_words = clip.words().data();
    const size_t nwords = out->words().size();
    out->Clear();
    states.ForEachSet([&](int q) {
      kern.or_masked_into(
          dst,
          reverse_.row_masks[reverse_.Row(static_cast<StateId>(q), symbol)]
              .words()
              .data(),
          clip_words, nwords);
    });
  } else {
    reverse_.StepInto(states, symbol, out);
    *out &= clip;
  }
}

void UnrolledNfa::PredSetWordsInto(const uint64_t* from, Symbol symbol,
                                   int level, uint64_t* out,
                                   const simd::BitsetKernels& kern) const {
  assert(level >= 1 && level <= n_);
  const size_t nwords = RowWords(nfa_->num_states());
  const uint64_t* clip = reachable_[level - 1].words().data();
  std::fill(out, out + nwords, 0);
  if (reverse_.has_masks()) {
    // Fused OR-and-clip, exactly as PredSetInto but on spans.
    ForEachSetWord(from, nwords, [&](int q) {
      const Bitset& mask =
          reverse_.row_masks[reverse_.Row(static_cast<StateId>(q), symbol)];
      kern.or_masked_into(out, mask.words().data(), clip, nwords);
    });
  } else {
    ForEachSetWord(from, nwords, [&](int q) {
      const StateId* end = reverse_.RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = reverse_.RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out[static_cast<size_t>(*t) >> 6] |=
            uint64_t{1} << (static_cast<size_t>(*t) & 63);
      }
    });
    kern.and_into(out, clip, nwords);
  }
}

void UnrolledNfa::SuccSetWordsInto(const uint64_t* from, Symbol symbol,
                                   uint64_t* out,
                                   const simd::BitsetKernels& kern) const {
  const size_t nwords = RowWords(nfa_->num_states());
  std::fill(out, out + nwords, 0);
  if (forward_.has_masks()) {
    ForEachSetWord(from, nwords, [&](int q) {
      const Bitset& mask =
          forward_.row_masks[forward_.Row(static_cast<StateId>(q), symbol)];
      kern.or_into(out, mask.words().data(), nwords);
    });
  } else {
    ForEachSetWord(from, nwords, [&](int q) {
      const StateId* end = forward_.RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = forward_.RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out[static_cast<size_t>(*t) >> 6] |=
            uint64_t{1} << (static_cast<size_t>(*t) & 63);
      }
    });
  }
}

Bitset UnrolledNfa::PredSet(const Bitset& states, Symbol symbol,
                            int level) const {
  Bitset out(states.size());
  PredSetInto(states, symbol, level, &out);
  return out;
}

void UnrolledNfa::SuccSetInto(const Bitset& states, Symbol symbol,
                              Bitset* out) const {
  forward_.StepInto(states, symbol, out);
}

Bitset UnrolledNfa::ReachProfile(const Word& word) const {
  Bitset cur(nfa_->num_states());
  cur.Set(nfa_->initial());
  Bitset next(nfa_->num_states());
  for (Symbol s : word) {
    forward_.StepInto(cur, s, &next);
    std::swap(cur, next);
    if (cur.None()) break;
  }
  return cur;
}

std::optional<Word> UnrolledNfa::WitnessWord(StateId q, int level) const {
  assert(level >= 0 && level <= n_);
  if (!reachable_[level].Test(q)) return std::nullopt;
  // Walk backwards: at each step pick the smallest (symbol, predecessor) pair
  // whose predecessor is reachable at the previous level.
  Word word(level);
  Bitset cur(nfa_->num_states());
  Bitset preds(nfa_->num_states());
  cur.Set(q);
  for (int i = level; i >= 1; --i) {
    bool found = false;
    // Per-class scan, bit-identical to scanning every symbol: predecessor
    // emptiness is uniform within a class, and representatives are each
    // class's smallest member in ascending order — so the first nonempty
    // representative IS the smallest nonempty symbol.
    for (int c = 0; c < classes_.num_classes() && !found; ++c) {
      const Symbol a = classes_.Representative(c);
      PredSetInto(cur, a, i, &preds);
      int p = preds.FirstSet();
      if (p >= 0) {
        word[i - 1] = a;
        cur.Clear();
        cur.Set(p);
        found = true;
      }
    }
    assert(found && "reachable state must have a predecessor chain");
    if (!found) return std::nullopt;
  }
  assert(cur.Test(nfa_->initial()));
  return word;
}

StoredSample UnrolledNfa::MakeSample(Word word) const {
  Bitset reach = ReachProfile(word);
  return StoredSample{std::move(word), std::move(reach)};
}

}  // namespace nfacount
