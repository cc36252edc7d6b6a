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

/// Shared CSR assembly over a row-visitor: `edges_of_row(q, a)` must return
/// the targets of row (q, a) in ascending order. `with_masks` asks for the
/// per-row Bitset masks (kept only when they fit the budget).
template <typename EdgeSource>
CsrTransitions BuildCsr(const Nfa& nfa, bool with_masks,
                        EdgeSource&& edges_of_row) {
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
  if (with_masks && mask_bits > 0 &&
      mask_bits <= CsrTransitions::kMaskBitBudget) {
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
  return BuildCsr(nfa, /*with_masks=*/false,
                  [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
                    return nfa.Successors(q, a);
                  });
}

CsrTransitions CsrTransitions::FromPredecessors(const Nfa& nfa) {
  return BuildCsr(nfa, /*with_masks=*/true,
                  [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
                    return nfa.Predecessors(q, a);
                  });
}

void CsrTransitions::StepInto(const Bitset& from, Symbol symbol,
                              Bitset* out) const {
  assert(out != nullptr && out->size() == static_cast<size_t>(num_states));
  out->Clear();
  from.ForEachSet([&](int q) {
    const StateId* end = RowEnd(static_cast<StateId>(q), symbol);
    for (const StateId* t = RowBegin(static_cast<StateId>(q), symbol);
         t != end; ++t) {
      out->Set(static_cast<size_t>(*t));
    }
  });
}

UnrolledNfa::UnrolledNfa(const Nfa* nfa, int n)
    : nfa_(nfa), n_(n) {
  assert(nfa != nullptr);
  assert(nfa->Validate().ok());
  assert(n >= 0);
  classes_ = SymbolClassIndex::Compute(*nfa);
  forward_ = CsrTransitions::FromSuccessors(*nfa);
  reverse_ = CsrTransitions::FromPredecessors(*nfa);
  BuildSuccessorTable();
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
      SuccSetInto(cur, classes_.Representative(c), &step);
      next |= step;
    }
    reachable_.push_back(next);
    cur.CopyFrom(next);
  }
}

void UnrolledNfa::BuildSuccessorTable() {
  const size_t m = static_cast<size_t>(nfa_->num_states());
  row_words_ = RowWords(nfa_->num_states());
  succ_chunks_ = (m + 7) / 8;
  const size_t entry_words = row_words_;
  const size_t class_words = succ_chunks_ * 256 * entry_words;
  const size_t num_classes = static_cast<size_t>(classes_.num_classes());
  if (class_words == 0 ||
      num_classes * class_words > CsrTransitions::kMaskBitBudget / 64) {
    return;  // over budget: forward steps scatter the CSR rows
  }
  succ_table_.assign(num_classes * class_words, 0);
  for (size_t c = 0; c < num_classes; ++c) {
    const Symbol rep = classes_.Representative(static_cast<int>(c));
    for (size_t k = 0; k < succ_chunks_; ++k) {
      uint64_t* chunk = succ_table_.data() + (c * succ_chunks_ + k) * 256 *
                                                 entry_words;
      // Single-state entries b = 1 << j are the rows themselves (a chunk's
      // bits past m stay empty; no frontier ever sets them).
      for (size_t j = 0; j < 8 && 8 * k + j < m; ++j) {
        uint64_t* entry = chunk + (size_t{1} << j) * entry_words;
        const StateId q = static_cast<StateId>(8 * k + j);
        for (const StateId* t = forward_.RowBegin(q, rep);
             t != forward_.RowEnd(q, rep); ++t) {
          entry[static_cast<size_t>(*t) >> 6] |=
              uint64_t{1} << (static_cast<size_t>(*t) & 63);
        }
      }
      // T[b] = T[b & (b − 1)] | T[b & −b]: both operands have fewer bits
      // than b, so one ascending pass fills the chunk in O(256·words).
      for (size_t b = 3; b < 256; ++b) {
        const size_t low = b & (~b + 1);
        if (low == b) continue;  // single state, already a row
        uint64_t* entry = chunk + b * entry_words;
        const uint64_t* rest = chunk + (b & (b - 1)) * entry_words;
        const uint64_t* row = chunk + low * entry_words;
        for (size_t w = 0; w < entry_words; ++w) entry[w] = rest[w] | row[w];
      }
    }
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
    uint64_t* dst = out->mutable_words();
    const uint64_t* clip_words = clip.words().data();
    const size_t nwords = out->words().size();
    out->Clear();
    states.ForEachSet([&](int q) {
      const uint64_t* row =
          reverse_.row_masks[reverse_.Row(static_cast<StateId>(q), symbol)]
              .words()
              .data();
      for (size_t w = 0; w < nwords; ++w) dst[w] |= row[w] & clip_words[w];
    });
  } else {
    reverse_.StepInto(states, symbol, out);
    *out &= clip;
  }
}

void UnrolledNfa::SuccSetWordsInto(const uint64_t* from, Symbol symbol,
                                   uint64_t* out) const {
  const size_t nwords = row_words_;
  std::fill(out, out + nwords, 0);
  if (has_successor_table()) {
    // One entry per non-zero frontier byte: byte i of word w is chunk
    // 8w + i, and its value indexes the chunk's 256 entries.
    const uint64_t* table =
        succ_table_.data() + static_cast<size_t>(classes_.ClassOf(symbol)) *
                                 succ_chunks_ * 256 * nwords;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t bits = from[w];
      while (bits) {
        const int shift = __builtin_ctzll(bits) & ~7;
        const size_t byte = (bits >> shift) & 0xff;
        bits &= ~(uint64_t{0xff} << shift);
        const size_t chunk = w * 8 + static_cast<size_t>(shift >> 3);
        const uint64_t* entry = table + (chunk * 256 + byte) * nwords;
        for (size_t x = 0; x < nwords; ++x) out[x] |= entry[x];
      }
    }
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
  assert(out != nullptr && out->size() == states.size());
  SuccSetWordsInto(states.words().data(), symbol, out->mutable_words());
}

Bitset UnrolledNfa::ReachProfile(const Word& word) const {
  Bitset cur(nfa_->num_states());
  cur.Set(nfa_->initial());
  Bitset next(nfa_->num_states());
  for (Symbol s : word) {
    SuccSetInto(cur, s, &next);
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
