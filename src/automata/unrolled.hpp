// The unrolled automaton A_unroll of the paper (Fig. 1, line 1): n+1 layers of
// state copies q^ℓ with the original transitions running between adjacent
// layers. We materialize per-level reachable sets instead of copying states:
// L(q^ℓ) is nonempty iff q is reachable from the initial state in exactly ℓ
// steps, and the FPRAS only ever touches reachable copies.
//
// Hot-path layout: the per-state adjacency of Nfa (vector-of-vector-of-vector,
// three pointer hops per row) is flattened at construction into CSR
// (compressed sparse row) arrays — contiguous `offsets`/`targets`/`symbols` —
// in both directions: forward CSR for membership/reach recomputation, reverse
// CSR for the predecessor expansions that dominate Algorithm 2's walk. When
// the automaton is small enough, each reverse (state, symbol) row
// additionally carries its source set as a Bitset mask, so one predecessor
// step is a word-parallel OR of contiguous masks instead of a per-edge
// scatter, and forward steps read a byte-indexed successor table: one OR per
// 8-state chunk of the frontier instead of one per set state.
//
// This module also provides the membership-oracle machinery: a stored sample
// carries the reachable-state set of its word, making every membership query
// the FPRAS performs a single bit probe (the amortization of §4.3's time
// analysis).

#ifndef NFACOUNT_AUTOMATA_UNROLLED_HPP_
#define NFACOUNT_AUTOMATA_UNROLLED_HPP_

#include <optional>
#include <vector>

#include "automata/nfa.hpp"
#include "automata/symbol_classes.hpp"
#include "util/status.hpp"

namespace nfacount {

/// A word together with the state set {q : word ∈ L(q^{|word|})}. The reach
/// set is computed once on insertion (O(|word|·|Δ|/64)) and answers all later
/// membership queries in O(1).
struct StoredSample {
  Word word;   ///< the sampled word
  Bitset reach;///< {q : word ∈ L(q^{|word|})}, the word's membership profile
};

/// Non-owning view of one sample inside a SampleBlock slab: the word's
/// symbols and its reach-profile words, both as raw spans. This is what the
/// AppUnion estimators consume on the hot path — no per-sample heap objects.
struct SampleRef {
  const Symbol* symbols;  ///< word, `length` symbols
  int length;             ///< word length (the sample's level ℓ)
  const uint64_t* profile;///< reach profile, `profile_words` words
  size_t profile_words;

  /// Bit q of the reach profile: word ∈ L(q^length)?
  bool ProfileTest(StateId q) const {
    return (profile[static_cast<size_t>(q) >> 6] >>
            (static_cast<size_t>(q) & 63)) & 1;
  }
  /// Materializes the word (allocates — for accessors, not the hot path).
  Word ToWord() const { return Word(symbols, symbols + length); }
};

/// AppUnionBatched customization point (see union_mc.hpp): a SampleRef's
/// membership profile is its raw word span.
inline const uint64_t* ProfileWordsData(const SampleRef& s) {
  return s.profile;
}
inline size_t ProfileWordsCount(const SampleRef& s) { return s.profile_words; }

/// Flat struct-of-arrays storage for one cell's sample set S(q^ℓ). All
/// samples of a cell share the word length ℓ, so both slabs are
/// fixed-stride: sample i's symbols live at [i·ℓ, (i+1)·ℓ) of `symbols` and
/// its reach profile at [i·w, (i+1)·w) of `profiles` — two allocations per
/// cell (amortized away by Reserve) instead of two per sample.
class SampleBlock {
 public:
  SampleBlock() = default;

  /// Empties the block and fixes the per-sample strides; keeps capacity.
  void Reset(int word_len, size_t profile_bits) {
    word_len_ = word_len;
    profile_words_ = (profile_bits + 63) / 64;
    count_ = 0;
    symbols_.clear();
    profiles_.clear();
  }

  /// Preallocates room for `samples` entries (one shot per cell).
  void Reserve(int64_t samples) {
    symbols_.reserve(static_cast<size_t>(samples) * word_len_);
    profiles_.reserve(static_cast<size_t>(samples) * profile_words_);
  }

  /// Appends one sample by copying `word_len` symbols and `profile_words`
  /// profile words (symbols may be null when word_len is 0).
  void Append(const Symbol* symbols, const uint64_t* profile) {
    if (word_len_ > 0) {
      symbols_.insert(symbols_.end(), symbols, symbols + word_len_);
    }
    profiles_.insert(profiles_.end(), profile, profile + profile_words_);
    ++count_;
  }

  /// Appends `times` copies of the same sample (Alg. 3 padding, level 0).
  void AppendRepeat(const Symbol* symbols, const uint64_t* profile,
                    int64_t times) {
    for (int64_t i = 0; i < times; ++i) Append(symbols, profile);
  }

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  int word_len() const { return word_len_; }
  size_t profile_words() const { return profile_words_; }

  SampleRef At(int64_t idx) const {
    assert(idx >= 0 && idx < count_);
    return SampleRef{
        word_len_ > 0 ? symbols_.data() + static_cast<size_t>(idx) * word_len_
                      : nullptr,
        word_len_,
        profiles_.data() + static_cast<size_t>(idx) * profile_words_,
        profile_words_};
  }

  /// Bytes currently reserved by the two slabs (for memory diagnostics).
  int64_t bytes_reserved() const {
    return static_cast<int64_t>(symbols_.capacity() * sizeof(Symbol) +
                                profiles_.capacity() * sizeof(uint64_t));
  }

  /// The raw symbol slab (count() × word_len() entries) — checkpoint
  /// serialization reads the block in its native flat form.
  const std::vector<Symbol>& symbols_slab() const { return symbols_; }
  /// The raw reach-profile slab (count() × profile_words() words).
  const std::vector<uint64_t>& profiles_slab() const { return profiles_; }

  /// Installs deserialized slab contents (checkpoint load): `symbols` must
  /// hold count·word_len entries and `profiles` count·⌈profile_bits/64⌉
  /// words. Returns InvalidArgument on any dimension mismatch, leaving the
  /// block empty at the new strides.
  Status Restore(int word_len, size_t profile_bits, int64_t count,
                 std::vector<Symbol> symbols, std::vector<uint64_t> profiles) {
    if (word_len < 0 || count < 0) {
      return Status::Invalid("SampleBlock::Restore: negative dimension");
    }
    Reset(word_len, profile_bits);
    if (symbols.size() != static_cast<size_t>(count) * word_len_ ||
        profiles.size() != static_cast<size_t>(count) * profile_words_) {
      return Status::Invalid("SampleBlock::Restore: slab size mismatch");
    }
    symbols_ = std::move(symbols);
    profiles_ = std::move(profiles);
    count_ = count;
    return Status::Ok();
  }

 private:
  int word_len_ = 0;
  size_t profile_words_ = 0;
  int64_t count_ = 0;
  std::vector<Symbol> symbols_;
  std::vector<uint64_t> profiles_;
};

/// Flat CSR (compressed sparse row) transition layout. Rows are keyed by
/// (state, symbol): row q·|Σ|+a spans targets[offsets[row] .. offsets[row+1]),
/// and symbols[e] labels edge e (redundant with the row key, but it lets
/// whole-state walks iterate one contiguous span of |Σ| adjacent rows without
/// recomputing row boundaries). Construction cost is one pass over Δ; the
/// arrays never change afterwards.
///
/// When built with masks (the reverse CSR) and num_states·|Σ|·num_states
/// bits fit kMaskBitBudget, `row_masks` additionally stores each row's
/// target set as a Bitset, enabling word-parallel frontier propagation
/// (64 states per OR) in UnrolledNfa's PredSet.
struct CsrTransitions {
  /// Word-parallel table budget in bits (32 MiB): above this the per-row
  /// Bitset masks (and UnrolledNfa's successor table) are skipped and
  /// stepping falls back to span scatter.
  static constexpr size_t kMaskBitBudget = size_t{1} << 28;

  int num_states = 0;            ///< number of automaton states m
  int alphabet_size = 0;         ///< alphabet size |Σ|
  std::vector<int32_t> offsets;  ///< m·|Σ|+1 row starts into targets/symbols
  std::vector<StateId> targets;  ///< |Δ| edge endpoints, contiguous
  std::vector<Symbol> symbols;   ///< |Δ| edge labels, parallel to targets
  std::vector<Bitset> row_masks; ///< per-row target Bitsets (empty if over budget)

  /// CSR over the successor relation: row (q, a) lists {r : (q,a,r) ∈ Δ}.
  /// No row masks: forward steps read UnrolledNfa's successor table.
  static CsrTransitions FromSuccessors(const Nfa& nfa);
  /// CSR over the predecessor relation: row (q, a) lists {p : (p,a,q) ∈ Δ},
  /// with row masks when they fit the budget.
  static CsrTransitions FromPredecessors(const Nfa& nfa);

  /// Index of row (q, a).
  size_t Row(StateId q, Symbol a) const {
    return static_cast<size_t>(q) * alphabet_size + a;
  }
  /// Begin/end of row (q, a) in `targets`.
  const StateId* RowBegin(StateId q, Symbol a) const {
    return targets.data() + offsets[Row(q, a)];
  }
  const StateId* RowEnd(StateId q, Symbol a) const {
    return targets.data() + offsets[Row(q, a) + 1];
  }
  /// True when per-row Bitset masks were materialized.
  bool has_masks() const { return !row_masks.empty(); }

  /// One frontier step by span scatter: out = ∪_{q ∈ from} row(q, symbol).
  /// The engine's mask-backed and table-backed steps live in UnrolledNfa;
  /// this is their fallback when neither fits the budget. `out` must be
  /// sized num_states; it is cleared first.
  void StepInto(const Bitset& from, Symbol symbol, Bitset* out) const;
};

/// Level-indexed view of the unrolled automaton for a fixed length n.
///
/// Thread safety: construction does all the work (CSR arrays, masks, level
/// reachability); every const method afterwards only reads that immutable
/// state, so concurrent calls from the level-sweep workers are safe provided
/// each thread passes its own output buffers to the *Into variants (the
/// engine's per-worker Bitset scratch).
class UnrolledNfa {
 public:
  /// Builds level reachability for lengths 0..n. The NFA must validate.
  /// The symbol partition (automata/symbol_classes.hpp) is computed first,
  /// and the construction-time symbol loops run per class representative.
  UnrolledNfa(const Nfa* nfa, int n);

  const Nfa& nfa() const { return *nfa_; }
  int n() const { return n_; }

  /// The alphabet's symbol partition.
  const SymbolClassIndex& symbol_classes() const { return classes_; }

  /// Forward CSR (successor rows) — membership recomputation, reach profiles.
  const CsrTransitions& forward_csr() const { return forward_; }
  /// Reverse CSR (predecessor rows) — Algorithm 2's backward walk.
  const CsrTransitions& reverse_csr() const { return reverse_; }

  /// States q with L(q^ℓ) nonempty.
  const Bitset& ReachableAt(int level) const { return reachable_[level]; }

  bool IsReachable(StateId q, int level) const {
    return reachable_[level].Test(q);
  }

  /// Predecessor expansion P^ℓ_b = (∪_{q∈P} Pred(q, b)) ∩ reachable(ℓ-1):
  /// the state set whose level-(ℓ-1) languages union to the b-suffix slice of
  /// L(P^ℓ). `level` is the level of P (must be >= 1).
  Bitset PredSet(const Bitset& states, Symbol symbol, int level) const;

  /// Allocation-free PredSet for the sampling hot loop: writes into `out`
  /// (must be sized num_states; cleared first). CSR-backed.
  void PredSetInto(const Bitset& states, Symbol symbol, int level,
                   Bitset* out) const;

  /// One plain successor step over raw word spans (a new node of a
  /// worker's ReachTrie, fpras/plane.hpp): `from` and `out` are (num_states+63)/64
  /// words (distinct spans). Reads the successor table when present, the
  /// forward CSR rows otherwise; bit-identical to SuccSetInto.
  void SuccSetWordsInto(const uint64_t* from, Symbol symbol,
                        uint64_t* out) const;

  /// One forward step clipped to nothing (plain successor image).
  void SuccSetInto(const Bitset& states, Symbol symbol, Bitset* out) const;

  /// The reach profile {q : word ∈ L(q^{|word|})} by forward stepping
  /// (the tests' reference for the engine's ReachTrie).
  Bitset ReachProfile(const Word& word) const;

  /// True when the byte-indexed successor table fits kMaskBitBudget and
  /// forward steps read it; false when they scatter the forward CSR rows.
  bool has_successor_table() const { return !succ_table_.empty(); }

  /// Some witness word in L(q^ℓ), or nullopt if L(q^ℓ) is empty. Used to pad
  /// sample sets (Algorithm 3, lines 27-30). Deterministic.
  std::optional<Word> WitnessWord(StateId q, int level) const;

  /// Builds a StoredSample for `word` (computes its reach set on the
  /// forward CSR).
  StoredSample MakeSample(Word word) const;

 private:
  /// Fills succ_table_ when it fits the budget (see below).
  void BuildSuccessorTable();

  const Nfa* nfa_;
  int n_;
  SymbolClassIndex classes_;
  CsrTransitions forward_;
  CsrTransitions reverse_;
  /// Byte-indexed successor table: entry (c, k, b) — row_words_ words at
  /// ((c·succ_chunks_ + k)·256 + b)·row_words_ — is the union of the successor
  /// rows of the states {8k + j : bit j of b} under class c's symbols, so a
  /// forward step ORs one entry per non-zero frontier byte. Empty when
  /// C·⌈m/8⌉·256·row_words_·64 bits exceed CsrTransitions::kMaskBitBudget.
  std::vector<uint64_t> succ_table_;
  size_t succ_chunks_ = 0;  ///< ⌈m/8⌉ 8-state chunks
  size_t row_words_ = 0;    ///< ⌈m/64⌉ words per state set
  std::vector<Bitset> reachable_;  // [0..n]
};

}  // namespace nfacount

#endif  // NFACOUNT_AUTOMATA_UNROLLED_HPP_
