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
// few batches warm its capacity, a walk allocates nothing.
//
// Everything here is inert storage plus capacity accounting; the sweep logic
// lives in FprasEngine::RunWalkBatch (fpras/estimator.cpp).

#ifndef NFACOUNT_FPRAS_PLANE_HPP_
#define NFACOUNT_FPRAS_PLANE_HPP_

#include <cstdint>
#include <vector>

#include "automata/alphabet.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace nfacount {

struct DescentEntry;  // fpras/estimator.hpp

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
  /// `word_len` (≥ 0). Does not touch plane row contents.
  void BeginBatch(int batch, int word_len, size_t bits, int num_classes);

  /// Walk w's staged symbol buffer (stride = the batch's word length).
  Symbol* WordOf(int w) {
    return symbols.data() + static_cast<size_t>(w) * word_stride_;
  }
  const Symbol* WordOf(int w) const {
    return symbols.data() + static_cast<size_t>(w) * word_stride_;
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
  std::vector<std::vector<double>> group_sizes;  ///< weighted sz_c per group
  std::vector<double> group_total;               ///< Σ_c weight_c·sz_c
  std::vector<uint8_t> group_ready;              ///< sizes computed yet?
  /// The group's descent-cache entry (sizes and every class's predecessor
  /// row), or nullptr when none was admitted: then group_sizes holds the
  /// sizes and a drawn class's row is expanded on demand.
  std::vector<const DescentEntry*> group_entry;
  std::vector<int32_t> child_of;  ///< group × C → next-level group id

  // Scratch bitsets bridging plane rows into Bitset-taking APIs.
  Bitset frontier_scratch;  ///< group frontier view (UnionSizes)
  Bitset profile_cur;       ///< fused forward reach-profile pass
  Bitset profile_next;

 private:
  template <typename T>
  void Ensure(std::vector<T>& v, size_t n) {
    if (n > v.capacity()) ++vector_alloc_events_;
    if (v.size() < n) v.resize(n);
  }

  /// Single up-front sizing of the per-group sz vectors: `rows` group slots,
  /// each holding capacity for `num_classes` entries. Shared by PrepareRun
  /// and BeginBatch so a batch wider than the PrepareRun reservation can
  /// never index past group_sizes (the old BeginBatch skipped this slab).
  void EnsureGroupSizes(int rows, int num_classes);

  size_t word_stride_ = 0;
  int64_t vector_alloc_events_ = 0;
};

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_PLANE_HPP_
