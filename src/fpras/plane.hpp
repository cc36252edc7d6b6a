// Data plane of the batched multi-walk sampler (Algorithm 2 in lockstep).
//
// A batch of B candidate walks descends the levels together. Their frontiers
// live in a FrontierPlane — a row-major B×m bit-matrix stored as one
// contiguous uint64 slab — and walks whose symbol histories coincide share a
// single row ("group"): all walks start in one group at the target frontier,
// and a group splits only when members draw different symbols, so every
// predecessor expansion and union-size estimation runs once per (group,
// symbol) instead of once per walk. The SampleArena bundles the two
// ping-pong planes with all per-walk and per-group state (symbol staging,
// acceptance weights, RNG substreams, group maps, size vectors) into one
// per-worker slab that is reused across cells and batches: after the first
// few batches warm its capacity, a walk allocates nothing. Beside the arena,
// each worker keeps a ReachTrie: the forward reach profiles of the prefixes
// its accepted words have used, so a stored sample's profile costs one
// successor step per prefix the worker has not seen before.
//
// Everything here except ReachTrie::Profile is inert storage plus capacity
// accounting; the sweep logic lives in FprasEngine::RunWalkBatch
// (fpras/estimator.cpp).

#ifndef NFACOUNT_FPRAS_PLANE_HPP_
#define NFACOUNT_FPRAS_PLANE_HPP_

#include <atomic>
#include <cstdint>
#include <vector>

#include "automata/alphabet.hpp"
#include "automata/unrolled.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace nfacount {

struct DescentEntry;  // fpras/estimator.hpp

/// One walk group's Algorithm 2 step at the current level, as the walk reads
/// it: the weighted per-class union sizes and their total, every class's
/// predecessor row (C rows of row_words words, in class order), and one
/// child link per class. It points into the group's admitted DescentEntry,
/// or — when none was admitted (cache off, budget spent) — into the group's
/// arena slabs, with no links.
struct GroupStep {
  const std::vector<double>* sizes = nullptr;  ///< null: not estimated yet
  const uint64_t* rows = nullptr;
  std::atomic<const DescentEntry*>* links = nullptr;
  double total = 0.0;  ///< Σ_c weight_c·sz_c
};

/// Row-major bit-matrix of walk-group frontiers: `rows` rows of `bits` bits,
/// each row padded to whole words, all rows in one contiguous buffer.
/// Reshape() keeps the underlying capacity, so a plane sized once for the
/// widest batch never allocates again.
class FrontierPlane {
 public:
  /// Resizes to `rows` rows of `bits` bits. Contents become unspecified
  /// (rows are fully overwritten by the sweep before being read).
  void Reshape(int rows, size_t bits) {
    row_words_ = (bits + 63) / 64;
    rows_ = rows;
    const size_t need = static_cast<size_t>(rows) * row_words_;
    if (need > words_.capacity()) ++alloc_events_;
    words_.resize(need);
  }

  uint64_t* Row(int r) {
    return words_.data() + static_cast<size_t>(r) * row_words_;
  }
  const uint64_t* Row(int r) const {
    return words_.data() + static_cast<size_t>(r) * row_words_;
  }

  int rows() const { return rows_; }
  size_t row_words() const { return row_words_; }

  int64_t bytes_reserved() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t));
  }
  int64_t alloc_events() const { return alloc_events_; }

 private:
  std::vector<uint64_t> words_;
  size_t row_words_ = 0;
  int rows_ = 0;
  int64_t alloc_events_ = 0;
};

/// Per-worker slab backing one in-flight walk batch. PrepareRun() sizes
/// everything once for the engine's (batch width, n, m); BeginBatch() then
/// only rewinds counters and reshapes within reserved capacity. The arena is
/// plain data — the engine indexes it directly.
class SampleArena {
 public:
  /// Walk status codes (state_of values).
  static constexpr uint8_t kAlive = 0;
  static constexpr uint8_t kDead = 1;
  static constexpr uint8_t kAccepted = 2;

  /// Per-walk outcome codes (outcome_of values), staged by the sweep and
  /// folded into the engine diagnostics only for the attempts the caller
  /// actually consumes — the mechanism that keeps the per-walk counters
  /// exact for every batch width.
  static constexpr uint8_t kOutcomeAccepted = 0;  ///< base-case accept
  static constexpr uint8_t kOutcomePhi = 1;       ///< Fail1: φ > 1
  static constexpr uint8_t kOutcomeBernoulli = 2; ///< Fail2: ⊥ at the base
  static constexpr uint8_t kOutcomeDead = 3;      ///< dead branch mid-walk

  /// One-time (per Run) sizing for batches of up to `max_batch` walks over
  /// words of length up to `max_word_len` and frontiers of `bits` bits.
  /// `num_classes` is the per-group symbol stride — the number of symbol
  /// classes (|Σ| under the trivial partition): child_of rows and sz
  /// vectors hold one slot per class.
  void PrepareRun(int max_batch, int max_word_len, size_t bits,
                  int num_classes);

  /// Rewinds the arena for one batch of `batch` walks of word length
  /// `word_len` (≥ 0), growing any slab the batch outgrows. Does not touch
  /// plane row contents.
  void BeginBatch(int batch, int word_len, size_t bits, int num_classes);

  /// Walk w's staged symbol buffer (stride = the batch's word length).
  Symbol* WordOf(int w) {
    return symbols.data() + static_cast<size_t>(w) * word_stride_;
  }
  const Symbol* WordOf(int w) const {
    return symbols.data() + static_cast<size_t>(w) * word_stride_;
  }
  /// Symbols between consecutive walks' buffers (WordOf(w + 1) − WordOf(w)).
  size_t word_stride() const { return word_stride_; }

  /// Group g's predecessor-row slab (group_rows).
  uint64_t* GroupRows(int g) {
    return group_rows.data() + static_cast<size_t>(g) * group_rows_stride_;
  }

  /// Bytes reserved across the planes and slabs (memory diagnostics).
  int64_t bytes_reserved() const;
  /// Capacity-growth events since construction: stays flat after warmup —
  /// the "zero per-sample allocations" contract asserted by tests.
  int64_t alloc_events() const;

  // Ping-pong frontier planes, rows indexed by group id at the current /
  // next level of the sweep.
  FrontierPlane cur;
  FrontierPlane next;

  // Per-walk state, indexed by walk slot [0, batch).
  std::vector<Symbol> symbols;      ///< batch × word_len staging slab
  std::vector<double> phi;          ///< acceptance weight φ per walk
  std::vector<Rng> rng;             ///< per-attempt content-keyed substream
  std::vector<int32_t> group_of;    ///< current group id per walk
  std::vector<int32_t> next_group_of;
  std::vector<uint8_t> state_of;    ///< kAlive / kDead / kAccepted
  std::vector<uint8_t> outcome_of;  ///< kOutcome* fate per walk
  std::vector<int32_t> accepted;    ///< accepted walk ids, attempt order

  // Per-group state at the current level, indexed by group id.
  std::vector<GroupStep> group_step;  ///< the step every member reads
  /// A descent miss's slabs: UnionSizesInto writes the group's weighted
  /// sz_c and its C predecessor rows here, and the cache copies them into
  /// the entry it admits.
  std::vector<std::vector<double>> group_sizes;
  std::vector<uint64_t> group_rows;  ///< C·row_words words per group
  std::vector<int32_t> child_of;  ///< group × C → next-level group id
  /// Per group: the parent entry's child link for the class the group's
  /// walks drew — read to skip the group's probe, written to publish its
  /// entry — or nullptr at the root and when the parent had no entry.
  /// Swapped with the planes like group_of; next_group_link is filled as
  /// the children are created.
  std::vector<std::atomic<const DescentEntry*>*> group_link;
  std::vector<std::atomic<const DescentEntry*>*> next_group_link;

  /// Bridges a plane row into Bitset-taking APIs (UnionSizes).
  Bitset frontier_scratch;

 private:
  template <typename T>
  void Ensure(std::vector<T>& v, size_t n) {
    if (n > v.capacity()) ++vector_alloc_events_;
    if (v.size() < n) v.resize(n);
  }

  size_t word_stride_ = 0;
  size_t group_rows_stride_ = 0;
  int64_t vector_alloc_events_ = 0;
};

/// Forward reach profiles of word prefixes, as a trie: a lazy subset
/// construction over only the prefixes that were asked for. Node 0 holds
/// {initial}. Child slot c of node u holds the node whose row is
/// Succ(row(u), b) for the symbols b of class c (class members step
/// identically), so a word of length ℓ follows ℓ slots and its profile
/// {q : word ∈ L(q^ℓ)} is the last node's row. A missing slot costs one
/// UnrolledNfa::SuccSetWordsInto step, taken with the word's own symbol,
/// plus an append. A prefix's reach set does not depend on ℓ, so one trie
/// serves every level of one automaton.
///
/// `budget_bytes` bounds the nodes (rows plus child slots): when a word's
/// missing suffix does not fit, the trie clears and restarts from the root.
/// A workload whose prefixes never repeat then pays one step plus one append
/// per symbol, as a plain forward simulation would. A word longer than the
/// whole budget still gets its path; the next miss clears it.
class ReachTrie {
 public:
  explicit ReachTrie(size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// The reach profile of word[0, len): ⌈m/64⌉ words, valid until the next
  /// call. Every call on one trie must pass the same automaton. Adds the
  /// successor steps it computes (the nodes it creates) to *steps.
  const uint64_t* Profile(const UnrolledNfa& unrolled, const Symbol* word,
                          int len, int64_t* steps);

  /// Nodes held, the root included (0 before the first Profile call).
  size_t nodes() const { return row_words_ ? rows_.size() / row_words_ : 0; }

  int64_t bytes_reserved() const;

 private:
  /// Drops every node and installs the root {initial}.
  void Restart(const UnrolledNfa& unrolled);

  uint64_t* Row(size_t node) { return rows_.data() + node * row_words_; }

  size_t budget_bytes_;
  size_t row_words_ = 0;
  size_t num_classes_ = 0;
  size_t max_nodes_ = 0;  ///< nodes that fit budget_bytes_ (at least 1)
  std::vector<uint64_t> rows_;       ///< node × row_words_
  std::vector<int32_t> children_;    ///< node × C; 0 = missing (root never a child)
};

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_PLANE_HPP_
