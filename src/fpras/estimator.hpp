// The FPRAS for #NFA (Algorithm 3 of the paper) and its sampling subroutine
// (Algorithm 2), implemented over the unrolled automaton.
//
// Execution outline (matching Fig. 1 / Algorithm 3):
//   level 0:  N(I⁰) = 1, S(I⁰) = [λ,...]; all other states empty;
//   level ℓ:  for each reachable q:
//       sz_b  = AppUnion over {(S(p^{ℓ-1}), N(p^{ℓ-1})) : p ∈ Pred(q,b)}
//       N(qℓ) = Σ_b sz_b          (w.p. 1−η/2n; else perturbed — line 16-19)
//       S(qℓ) = up to ns words from sample(ℓ, {q}, λ, 2/(3e·N(qℓ)), β, ·),
//               padded with a fixed witness word on shortfall (lines 27-30);
//   output:   |L(A_ℓ)| at every level, computed once as part of the level —
//             N(q_F^ℓ), or an AppUnion over the accepting states when
//             |F| > 1 (the paper's single-final-state assumption is WLOG).
//             The horizon count |L(A_n)| is the ℓ = n slice
//             (EstimateAtLength(n)).
//
// sample() (Algorithm 2) extends a suffix backwards: at level i it estimates
// sz_b = |∪_{p∈P_b} L(p^{i-1})| for each symbol b, draws b proportionally,
// divides the acceptance probability φ by pr_b, and recurses; at level 0 it
// returns the built word with probability φ (γ0·Π pr_b⁻¹ telescopes to the
// uniform γ0 per word — Theorem 2(1)).
//
// Batched sampling plane (docs/ARCHITECTURE.md "Memory layout"): instead of
// one rejection walk at a time, the engine advances batch_width candidate
// walks in lockstep down the levels on a per-worker FrontierPlane
// (fpras/plane.hpp). Walks with identical symbol histories share one
// frontier row ("group"), so each level costs one descent-cache
// lookup (or union-size estimation) per group and one predecessor row per
// (group, drawn class) — not per walk; below the root step the lookup is
// usually a followed child link rather than a hash probe — and
// the reach profile of each stored word is read from the worker's prefix
// trie (ReachTrie, fpras/plane.hpp), which computes each prefix's reach set
// once while it fits a fixed byte budget. Each
// candidate walk draws exclusively from its own attempt-indexed RNG
// substream, which makes every estimate, table, sample, and post-run draw
// bit-identical for every batch width (B = 1 included), exactly as the
// per-cell substreams make them thread-count-invariant.
//
// Concurrency model (docs/ARCHITECTURE.md "Concurrency model"): within level
// ℓ every (q, ℓ) cell depends only on the frozen level ℓ−1 tables, so the
// sweep fans the cells of each level out over a fixed ThreadPool and joins at
// a level barrier (AdvanceLevel). Determinism does not come from execution
// order: every cell draws from its own counter-based RNG substream
// (Rng::ForSubstream(seed, q, ℓ)), and every union-size estimation draws from
// a substream keyed by its *content* (purpose, level, P-set). Estimates,
// samples, and per-(q,ℓ) tables are therefore bit-identical for every
// num_threads value, including 1; only scheduling-dependent counters (cache
// hits/misses, appunion_calls) may differ between thread counts.
//
// Resumable pipeline (docs/ARCHITECTURE.md "Engine lifecycle & incremental
// extension"): the per-(q,ℓ) table is organized as one LevelState object per
// level, advanced strictly in level order by AdvanceLevel — a step that reads
// only the frozen LevelState below it. Because every random draw is keyed by
// content or by (q, ℓ) coordinates, the sweep can stop after any level and
// resume later (RunToLevel), in another process (checkpoint restore via
// RestoreComputedState), or with different num_threads / batch_width /
// descent-cache knobs, and still produce bit-identical tables, estimates,
// and post-run draws to one uninterrupted Run(). EngineSession
// (fpras/session.hpp) is the user-facing wrapper over this contract.
//
// Serve-mode seam (docs/ARCHITECTURE.md "Serve mode"): the post-run draw
// path owns its scratch bundles (draws_, one per draw worker) and its own
// lazily created pool, both distinct from the sweep's workers_ and pool_,
// and computed_level_ is an atomic, so ONE extending thread (RunToLevel) may
// run concurrently with draw/read threads as long as the readers only touch
// levels the extender has already finished: frozen LevelStates are
// immutable, the descent cache is internally locked and hands out entries
// whose only mutable part is their atomic child links, and every estimate
// is content-keyed, so the interleaving is invisible in all results.
// computed_level() is the one level-visibility fence: a level's cells and
// its |L(A_ℓ)| are written before the release store that publishes it.
// Callers must serialize draws among themselves (post_attempt_counter_ is a
// plain cursor); diagnostics() still requires quiescence.

#ifndef NFACOUNT_FPRAS_ESTIMATOR_HPP_
#define NFACOUNT_FPRAS_ESTIMATOR_HPP_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "automata/nfa.hpp"
#include "automata/unrolled.hpp"
#include "counting/union_mc.hpp"
#include "fpras/params.hpp"
#include "fpras/plane.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace nfacount {

/// Counters accumulated over one engine run (all levels).
struct FprasDiagnostics {
  int64_t appunion_calls = 0;   ///< AppUnion invocations (Alg. 1 entries)
  int64_t appunion_trials = 0;  ///< completed AppUnion trials across calls
  /// Membership probes answered: each AppUnion trial drawn from input i
  /// counts its full prefix length i (the probes one batched prefix-mask
  /// intersection answers).
  int64_t membership_checks = 0;
  int64_t starvations = 0;      ///< AppUnion Line-8 events
  /// Descent-cache lookups, one per walk group per level: sample-path
  /// (level, frontier) steps found in the cache — by DescentCache::Find or
  /// by following a parent entry's child link — vs estimated fresh. Both
  /// stay 0 when the cache is disabled (capacity 0).
  /// Scheduling-dependent: two threads can both miss on a key a sequential
  /// run would hit once; results never move (the cache is pure).
  ///
  /// Parallel draws (SampleAcceptedInto with num_threads > 1) run whole
  /// windows of walk batches, and the batches past the accept that
  /// completes a request are speculative. Their work shows up only in the
  /// counters that are scheduling-dependent anyway: the descent-cache
  /// hits/misses/entries/bytes, walk_batches, and the appunion_* and
  /// membership_checks of a descent miss. The per-walk counters
  /// (sample_calls, sample_success, fail_*) stay exact at every thread
  /// count, and at num_threads = 1 no counter sees a speculative batch.
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  /// Equal to memo_hits/memo_misses: an entry carries its predecessor rows,
  /// so there is no second probe. Both pairs stay because the CLI --json
  /// report, the serve stats reply and perfbench read them.
  int64_t descent_hits = 0;
  int64_t descent_misses = 0;
  /// Admitted descent-cache entries: (level, frontier) entries plus
  /// union-memo (level, Pred set) entries (they share the budget).
  int64_t descent_entries = 0;
  /// Approximate descent-cache footprint: keys, sizes, rows and child
  /// links, and the union memo's keys and estimates, counted when an entry
  /// is admitted.
  int64_t descent_bytes = 0;
  /// Candidate walks launched (Algorithm 2 attempts), counted exactly per
  /// consumed attempt: a lockstep batch may execute speculative walks past
  /// the attempt that fills S(q^ℓ) (or past the accept that satisfies a
  /// draw request), but those surplus walks are discarded unseen and are
  /// NOT counted. Table-building refills and the post-run draw path
  /// (SampleAcceptedInto) therefore match what a sequential batch_width = 1
  /// run reports for every batch width and thread count (asserted by
  /// tests/test_batch.cpp). Only walk_batches is inherently batch-shaped.
  int64_t sample_calls = 0;
  int64_t sample_success = 0;
  int64_t fail_phi_gt_1 = 0;    ///< Fail1: φ > 1 at the base (Alg. 2 line 5)
  int64_t fail_bernoulli = 0;   ///< Fail2: returned ⊥ at the base (line 6)
  int64_t fail_dead_branch = 0; ///< all sz_b = 0 mid-walk (perturbation echo)
  int64_t padded_words = 0;     ///< Alg. 3 lines 27-30 (SmallS events)
  int64_t perturbed_counts = 0; ///< Alg. 3 line 19 events
  int64_t states_processed = 0; ///< reachable (q, ℓ) copies visited
  int64_t walk_batches = 0;     ///< lockstep plane sweeps launched
  /// Forward successor steps computed for the reach profiles of stored
  /// samples, accepted and padded: the nodes the workers' ReachTries
  /// created. Each worker keeps its own trie, so like the descent-cache
  /// counters this is exact at num_threads = 1 and scheduling-dependent
  /// above it.
  int64_t profile_steps = 0;
  /// Bytes reserved by the per-worker SampleArenas and ReachTries (snapshot
  /// at the diagnostics() call, summed over sweep workers and draw bundles).
  int64_t arena_bytes_reserved = 0;
  /// Arena capacity-growth events since engine construction: flat after the
  /// first batches warm the slabs (the zero-per-sample-allocation contract).
  int64_t arena_alloc_events = 0;
  double wall_seconds = 0.0;    ///< wall-clock time of the Run() call
};

/// Per-(state, level) FPRAS state: the estimate N(q^ℓ) and sample set S(q^ℓ)
/// in flat struct-of-arrays form (two slabs per cell, no per-sample heap
/// vectors — see SampleBlock in automata/unrolled.hpp).
struct StateLevelData {
  double count_estimate = 0.0; ///< N(q^ℓ)
  SampleBlock samples;         ///< S(q^ℓ), count() == ns once filled
};

/// AppUnionBatched input adapter over one predecessor's (S, N) pair. Samples
/// come out of the cell's flat SampleBlock as SampleRef spans, and
/// membership of a stored word σ in L(p^{|σ|}) is bit p of its reach-profile
/// span — owner()/universe() give the prefix-mask coverage over the state-id
/// universe. Engine-internal; lives here only so WorkerScratch can hold
/// reusable vectors of it.
struct PredecessorInput {
  const StateLevelData* data;
  StateId state;
  const Nfa* nfa;

  double size_estimate() const { return data->count_estimate; }
  int64_t num_samples() const { return data->samples.count(); }
  SampleRef Sample(int64_t idx) const { return data->samples.At(idx); }
  int owner() const { return static_cast<int>(state); }
  size_t universe() const { return static_cast<size_t>(nfa->num_states()); }
};

/// Everything one level of the unrolled DP contributes: the Inv-1 count
/// estimates and Inv-2 sample multisets of every state copy q^ℓ. A
/// LevelState is written exactly once (by the AdvanceLevel step that computes
/// its level, or by a checkpoint restore) and is immutable afterwards —
/// levels above it only read it. This is the unit of checkpoint
/// serialization (fpras/checkpoint.hpp).
struct LevelState {
  int level = -1;                    ///< ℓ, or -1 when not yet computed
  std::vector<StateLevelData> cells; ///< indexed by state id, size m
  /// |L(A_ℓ)|, computed by the engine once the cells are final (Alg. 3
  /// line 31 / footnote 1). Not serialized: a restore recomputes it from
  /// the restored cells, bit for bit.
  double accepted_count = 0.0;

  /// True once AdvanceLevel (or a restore) has produced this level.
  bool computed() const { return level >= 0; }
};

/// One admitted descent-cache entry: everything a walk group needs at one
/// (level, frontier) step of Algorithm 2, plus a link per class to the entry
/// of the step below. The key, sizes and rows are written once, before the
/// cache hands the entry out, and are immutable until DescentCache::Reset.
///
/// Child links: Link(c) is null at admission and is set at most once, to the
/// admitted entry of (level − 1, Row(c)) — the step a walk that draws class c
/// takes next. A walk group that follows a set link skips that step's hash
/// probe. Links are idempotent: Insert's first writer wins, so a key has one
/// admitted entry and every publisher stores the same pointer. A group
/// publishes with a release store after Find or Insert handed it the child;
/// readers load with acquire, so the child's contents are visible.
struct DescentEntry {
  using ChildLink = std::atomic<const DescentEntry*>;

  int level = 0;
  std::vector<uint64_t> set;    ///< the frontier's words (the key)
  std::vector<double> sizes;    ///< weighted per-class union sizes
  std::vector<uint64_t> rows;   ///< Pred(P, c) per class c, set.size() words
                                ///< each, in class order
  /// One child link per class, in class order (sizes.size() of them).
  std::unique_ptr<ChildLink[]> links;

  /// Class c's expanded predecessor row.
  const uint64_t* Row(int c) const {
    return rows.data() + static_cast<size_t>(c) * set.size();
  }
  /// Class c's child link. Mutable through a const entry: a link is the one
  /// part of an admitted entry that is written after admission.
  ChildLink& Link(int c) const { return links[static_cast<size_t>(c)]; }
};

/// Sharded, capacity-bounded cache of the per-(level, frontier-set) descent
/// work the lockstep sampling plane repeats across refill batches, cells, and
/// post-run draws. It holds two kinds of entry:
///
///  - Frontier entries, keyed by (level, frontier P): both halves of one
///    Alg. 2 step — the per-symbol-class union-size vector (lines 8-11) and
///    every class's expanded predecessor row Pred(P, c) (one row covers
///    every member of the class). Both come out of the one UnionSizesInto
///    pass that misses, so an entry is complete when it is admitted and a
///    walk group makes one probe per level.
///  - Union entries (the union memo), keyed by (level, predecessor set):
///    the unweighted sample-path AppUnion estimate |∪_{p∈Pred} L(p^{ℓ-1})|.
///    Distinct frontiers often share a Pred(P, c), so a frontier miss looks
///    each class's set up here before it runs AppUnion. The class weight is
///    applied by the caller: two classes may share a set, not a weight.
///
/// The two kinds live in separate maps of the same shards, so a frontier
/// entry and a union entry with the same (level, words) never see each
/// other.
///
/// Purity argument (why this never changes a result): a sample-path AppUnion
/// draws from a substream keyed by (purpose, level, P-set content) — never
/// from caller state — with a δ fixed by the engine's parameters, over the
/// frozen level ℓ−1 cells, so its estimate is a function of the union key
/// alone and recomputation reproduces it bit for bit; a frontier's size
/// vector is a function of its classes' predecessor sets; and the
/// predecessor expansion is a pure function of (level, frontier, class) over
/// the fixed unrolled automaton. Estimates, tables, and draw streams are
/// therefore bit-identical with the cache on, off, or at any capacity; only
/// the hit/miss and AppUnion work counters are scheduling-dependent.
///
/// The count path (Alg. 3 line 15) is not memoized: its sets are singletons'
/// predecessors, which repeat in only a few percent of its calls.
///
/// This is the engine's only union-size cache, so a capacity of 0 is the
/// truly uncached reference (every descent step re-estimates its union
/// sizes and re-expands its predecessor rows).
///
/// Capacity discipline: both kinds of entry are admitted under the shard
/// lock against one shared budget (a CAS reservation on entries_ — no
/// overshoot under concurrency). Entries are never mutated or evicted, and
/// map nodes never move, so a returned DescentEntry pointer stays valid —
/// and may be read without the lock — until Reset, which only
/// FprasEngine::Prepare calls. Union estimates are copied out under the
/// lock.
///
/// Walk groups reach most frontier entries through a parent entry's child
/// link rather than through Find: a batch hashes its root step and the steps
/// whose link is not set yet, so the shard locks see a few probes per batch
/// and draw batches on several threads scale.
class DescentCache {
 public:
  /// Clears all shards and counters and fixes the geometry: row_words words
  /// per frontier and per predecessor row, num_classes rows per entry.
  /// Capacity caps the number of entries of both kinds; 0 disables the
  /// cache entirely.
  void Reset(int64_t capacity, size_t row_words, int num_classes);

  bool enabled() const { return capacity_ > 0; }

  /// The entry of (level, set) — `set` is row_words words — or nullptr.
  /// Counts one hit or miss when the cache is enabled.
  const DescentEntry* Find(int level, const uint64_t* set);

  /// Counts `n` hits that followed a child link instead of calling Find:
  /// each one replaces a probe that would have hit, so hits() is the same
  /// as if every step had probed.
  void CountLinkHits(int64_t n) {
    if (n != 0) link_hits_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Admits (level, set) → (sizes, rows) and returns the stored entry;
  /// `rows` holds num_classes × row_words words in class order. The first
  /// writer wins: an existing key returns its entry unchanged (concurrent
  /// inserts carry identical values, because UnionSizes is content-keyed).
  /// Returns nullptr when the budget is spent. A new entry's child links
  /// are null.
  const DescentEntry* Insert(int level, const uint64_t* set,
                             const std::vector<double>& sizes,
                             const uint64_t* rows);

  /// The union memo's estimate for (level, preds) — `preds` is row_words
  /// words — into *estimate; false when absent. Counts no probe: hits() and
  /// misses() are frontier lookups only.
  bool FindUnion(int level, const uint64_t* preds, double* estimate) const;

  /// Admits (level, preds) → estimate into the union memo. The first writer
  /// wins, as for Insert. Returns whether the key is held afterwards: false
  /// when the budget is spent (or the cache is disabled).
  bool InsertUnion(int level, const uint64_t* preds, double estimate);

  /// Frontier probe totals, summed over the shards (hits with the link
  /// hits): lock-free and safe from any thread while others probe.
  int64_t hits() const;
  int64_t misses() const;
  /// Admitted entries of both kinds (what the capacity caps).
  int64_t entries() const { return entries_.load(std::memory_order_relaxed); }
  /// Admitted union-memo entries, one shard lock at a time (inspection).
  int64_t union_entries() const;
  /// Footprint of the admitted entries: frontier keys, sizes, rows and child
  /// links, and union keys with their estimates.
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// One union-memo entry: the unweighted sample-path AppUnion estimate of
  /// (level, predecessor set).
  struct UnionEntry {
    int level = 0;
    std::vector<uint64_t> set;  ///< the predecessor set's words (the key)
    double estimate = 0.0;
  };

  /// Calls f(const DescentEntry&) for every admitted frontier entry, one
  /// shard lock at a time (inspection; the walk never enumerates).
  template <typename F>
  void ForEachEntry(F&& f) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& kv : shard.map) f(kv.second);
    }
  }

 private:
  static constexpr int kShardBits = 4;
  static constexpr int kNumShards = 1 << kShardBits;

  /// Both maps are keyed by the (level, set) hash, computed once per call:
  /// its top bits pick the shard and the map buckets it. An entry carries
  /// its key, so a probe compares words in place and copies nothing. The
  /// shard counts its own frontier probes on the cache line its mutex
  /// already pulled in, so concurrent walkers on different shards share no
  /// counter line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_multimap<uint64_t, DescentEntry> map;
    std::unordered_multimap<uint64_t, UnionEntry> unions;
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
  };

  uint64_t KeyHash(int level, const uint64_t* set) const;
  Shard& ShardFor(uint64_t hash) {
    return shards_[hash >> (64 - kShardBits)];
  }
  const Shard& ShardFor(uint64_t hash) const {
    return shards_[hash >> (64 - kShardBits)];
  }
  /// The entry of (level, set) in one of a shard's maps (lock held), or
  /// nullptr; serves both kinds of entry.
  template <typename Entry>
  static const Entry* FindLocked(
      const std::unordered_multimap<uint64_t, Entry>& map, uint64_t hash,
      int level, const uint64_t* set);
  /// Takes one entry of the shared budget; false when it is spent.
  bool ReserveEntry();

  std::array<Shard, kNumShards> shards_;
  int64_t capacity_ = 0;
  size_t row_words_ = 0;
  int num_classes_ = 0;
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> bytes_{0};
  /// Added to once per walk batch, on a line of its own.
  alignas(64) std::atomic<int64_t> link_hits_{0};
};

/// The FPRAS over a fixed (NFA, horizon n), organized as a resumable
/// level-state pipeline. The classic one-shot entry point is Run(); the
/// incremental surface is Prepare() + RunToLevel(ℓ), which advances the DP
/// one LevelState at a time and may stop and resume anywhere — every query
/// accessor works for any already-computed level, and RestoreComputedState()
/// installs levels recovered from a binary checkpoint. All three paths
/// produce bit-identical tables, estimates, and draws for the same
/// (seed, params) point.
class FprasEngine {
 public:
  /// The NFA must outlive the engine.
  FprasEngine(const Nfa* nfa, FprasParams params, uint64_t seed);

  /// Executes Algorithm 3 over all levels, fanning each level's reachable
  /// cells out over params.num_threads workers (see the concurrency model in
  /// the file comment). Idempotent (re-runs reset state). Equivalent to
  /// Prepare() followed by RunToLevel(horizon()).
  Status Run();

  /// Validates parameters, allocates the per-worker scratch and the level
  /// table, and installs LevelState 0 (Alg. 3 lines 6-10: L(I⁰) = {λ}).
  /// After success computed_level() == 0 and every query accessor is live
  /// for level 0. Idempotent: calling it again resets the pipeline.
  Status Prepare();

  /// Advances the pipeline level by level until `target` is computed
  /// (no-op when target <= computed_level()). Requires Prepare(); target
  /// must be in [0, horizon()] or Status::OutOfRange is returned. Splitting
  /// the sweep across any sequence of RunToLevel calls — or across a
  /// checkpoint save/load — is invisible in every estimate, table, and draw.
  Status RunToLevel(int target);

  /// Highest level whose LevelState is computed; -1 before Prepare().
  /// Safe to call from reader threads while another thread runs RunToLevel
  /// (acquire-load; pairs with the release store at the end of each
  /// AdvanceLevel, so a reader that observes level ℓ also observes every
  /// byte of levels_[0..ℓ]).
  int computed_level() const {
    return computed_level_.load(std::memory_order_acquire);
  }

  /// The maximum level this engine can compute (params().n): parameter
  /// derivation fixed β, ns, xns for this horizon at construction.
  int horizon() const { return params_.n; }

  /// Estimate of |L(A_ℓ)| for any computed ℓ: the DP maintains AccurateN at
  /// every level, so per-length counts come for free (each carries the same
  /// per-level (1±β)^ℓ ⊆ (1±ε) envelope). The horizon count |L(A_n)| is
  /// EstimateAtLength(horizon()). A lock-free read of the value the level
  /// stored when it was computed (LevelState::accepted_count), so it is
  /// safe from reader threads for any level <= computed_level(). `level`
  /// must be in [0, computed_level()] — violations abort via NFA_CHECK
  /// instead of reading out of bounds.
  double EstimateAtLength(int level) const;

  /// N(q^ℓ); 0 for unreachable copies. The level must be computed; q and
  /// level are range-checked (NFA_CHECK).
  double CountEstimateFor(StateId q, int level) const;

  /// S(q^ℓ) materialized as StoredSamples (empty for unreachable copies) —
  /// the invariant-test / inspection view of the flat block. The level must
  /// be computed; q and level are range-checked (NFA_CHECK).
  std::vector<StoredSample> SamplesFor(StateId q, int level) const;

  /// S(q^ℓ) in its native flat form (what the hot path reads). Same
  /// preconditions as SamplesFor.
  const SampleBlock& SampleBlockFor(StateId q, int level) const;

  /// The whole computed LevelState of one level (checkpoint serialization
  /// and structural tests). Same preconditions as SamplesFor.
  const LevelState& LevelStateAt(int level) const;

  /// Installs externally recovered levels 0..computed_level (checkpoint
  /// load): levels[ℓ] must hold exactly m cells whose SampleBlocks carry
  /// word length ℓ and this automaton's profile stride and whose N(q^ℓ) is
  /// non-negative (not NaN; +inf is a legal perturbed count), and
  /// `draw_cursor` restores the post-run attempt counter so resumed draw
  /// streams continue where the saved session stopped. Recomputes each
  /// restored level's |L(A_ℓ)|. Requires a successful Prepare(); validation
  /// failures leave the engine prepared-at-level-0.
  Status RestoreComputedState(int computed_level,
                              std::vector<LevelState> levels,
                              int64_t draw_cursor);

  /// Next post-run sampling attempt id (the "RNG cursor" of the draw
  /// streams): checkpoint state, advanced by SampleAcceptedInto.
  int64_t draw_cursor() const { return post_attempt_counter_; }

  /// Post-run draws of almost-uniform words from L(A_level) (Algorithm 2
  /// against the computed tables, with γ0 = 2/(3e·|L(A_level)|) from the
  /// level's stored estimate — no AppUnion per call): launches candidate
  /// walks in lockstep batches of the engine's batch width until at least
  /// `min_accepts` walks accept (or `max_attempts` walks have been tried),
  /// appending accepted words to `out` in attempt order. Returns the number
  /// appended.
  ///
  /// With T = ResolveThreadCount(num_threads) > 1 and a request worth at
  /// least a few batches per thread, the batches run as windows: W batches
  /// over the attempt range [c, c + W·B) on T draw workers (the draw pool
  /// and bundles, never the sweep's), each batch keeping its outcomes and
  /// accepted words, then a scan in attempt order. W is sized from the
  /// draw path's running accept ratio and the words still owed, capped by
  /// the attempt budget, so the speculative tail is at most one window.
  /// With T = 1, or a small request, each window is one batch run inline.
  ///
  /// Because each attempt draws from its own counter-keyed substream, the
  /// appended sequence is bit-identical for every batch width and thread
  /// count. Consumption is exact: appending stops at the accept that
  /// satisfies `min_accepts`, and the cursor, the attempt
  /// budget, and the per-walk diagnostics advance only through that
  /// attempt — exactly a sequential batch_width = 1 run. Later walks of the
  /// final batch (or window) are discarded unseen and are re-derived
  /// bit-identically if a later call reaches their attempt ids, so the draw
  /// stream is invariant across batch widths and thread counts even for
  /// arbitrary call/length interleavings (the EngineSession contract).
  /// (max_attempts, min_accepts) = (1, 1) is one attempt: it appends a word
  /// or nothing (a rejection; Theorem 2(2) bounds the rate).
  ///
  /// The level must be computed; it is range-checked (NFA_CHECK).
  int64_t SampleAcceptedInto(int level, int64_t max_attempts,
                             int64_t min_accepts, std::vector<Word>* out);

  const FprasParams& params() const { return params_; }

  /// Merged snapshot of the per-worker counters plus the descent cache's
  /// atomic hit/miss counts; includes post-Run() sampling activity.
  const FprasDiagnostics& diagnostics() const;

  const UnrolledNfa& unrolled() const { return unrolled_; }

  /// Snapshot of the descent cache's atomic counters. Unlike diagnostics(),
  /// this reads only atomics and is safe to call from any thread at any
  /// time — it is the serve-mode stats surface.
  struct CacheCounters {
    int64_t memo_hits = 0;       ///< DescentCache hits (probes and links)
    int64_t memo_misses = 0;     ///< DescentCache probe misses
    int64_t descent_hits = 0;    ///< == memo_hits (see FprasDiagnostics)
    int64_t descent_misses = 0;  ///< == memo_misses
    int64_t descent_entries = 0; ///< admitted DescentCache entries
    int64_t descent_bytes = 0;   ///< approximate DescentCache footprint
  };

  /// Thread-safe cache-counter snapshot (see CacheCounters).
  CacheCounters cache_counters() const;

  /// The descent cache itself, for inspection (DescentCache::ForEachEntry).
  const DescentCache& descent_cache() const { return descent_; }

  /// Approximate bytes held live by the computed LevelStates (the flat
  /// sample slabs plus the cell array itself). Reads only levels that are
  /// already published by computed_level(), so it is safe concurrently with
  /// an extending RunToLevel — the number trails by at most the level in
  /// flight. Serve-mode eviction budgets are fed from this.
  int64_t ApproxTableBytes() const;

 private:
  /// Byte budget of each worker's ReachTrie. 1 MiB holds every prefix of a
  /// build-e3 build (2,046 nodes of 24 B) many times over.
  static constexpr size_t kReachTrieBytes = size_t{1} << 20;

  /// Per-worker scratch bundle: everything a cell computation mutates other
  /// than its own levels_[ℓ].cells[q] slot. One instance per ThreadPool worker slot
  /// keeps the hot path allocation-free and race-free under concurrency.
  struct WorkerScratch {
    Bitset pred_scratch;          ///< PredSetInto target (UnionSizes)
    Bitset target_scratch;        ///< singleton {q} for RefillSamples
    AppUnionScratch union_scratch;///< batched-membership + draw-table scratch
    /// AppUnion input adapters, rebuilt per estimation but never reallocated
    /// once warm (capacity persists across UnionSizesInto calls).
    std::vector<PredecessorInput> union_inputs;
    std::vector<const PredecessorInput*> union_ptrs;
    SampleArena arena;            ///< lockstep walk batch slab (plane.hpp)
    /// Reach profiles of the stored samples' prefixes. Lives as long as the
    /// bundle: across levels and extensions, emptied when Prepare rebuilds
    /// the bundles (a Load included).
    ReachTrie reach{kReachTrieBytes};
    FprasDiagnostics diag;        ///< merged into diagnostics() on demand
  };

  /// Which substream family a union-size estimation draws from. The count
  /// path (Alg. 3 line 15) and the sample path (Alg. 2 lines 8-11) use
  /// distinct δ parameters and must not share randomness; only the sample
  /// path is cached (per frontier by RunWalkBatch, per class set by
  /// UnionSizesInto, both in the descent cache).
  enum class UnionPurpose { kCount, kSample };

  /// The per-symbol-class decomposition of ∪_{q∈P} L(q^level) (Alg. 2 lines
  /// 8-11 compressed over the symbol partition): out[c] = weight_c · sz_c,
  /// where sz_c is one AppUnion estimate of the class's shared predecessor
  /// slice — every member of a class has the same Pred(P, b), so one PredSet
  /// expansion and one AppUnion cover weight_c symbols and Σ_c out[c] is the
  /// full per-symbol total. Runs with parameters (β, delta_param); capacity
  /// of *out is reused across calls. Each class draws from a substream keyed
  /// by (purpose, level, predecessor-set content), so the result is a
  /// deterministic function of the engine seed and the arguments —
  /// independent of caller, thread, and cache state — and classes that share
  /// a predecessor set share the draws (duplicate content costs no fresh
  /// randomness). On the sample path with the descent cache on, a class
  /// whose (level, predecessor set) is in the union memo takes the memoized
  /// estimate instead of running AppUnion, and a fresh estimate is offered
  /// to the memo. When `rows` is non-null (the sample path) it receives
  /// every class's expansion Pred(P, c) — num_classes × row_words words in
  /// class order — the rows the walk step reads and the descent cache
  /// admits.
  void UnionSizesInto(int level, const Bitset& state_set, double delta_param,
                      UnionPurpose purpose, WorkerScratch& ws,
                      std::vector<double>* out, uint64_t* rows);

  /// One AppUnion (Algorithm 1) over the (S, N) pairs of `set`'s cells in
  /// `cells`, drawing from the substream keyed by (family, set content,
  /// level); counts the call and its work in ws.diag and returns the
  /// estimate.
  double RunAppUnion(const LevelState& cells, const Bitset& set,
                     uint64_t family, int level, const AppUnionParams& au,
                     WorkerScratch& ws);

  /// Algorithm 2 over a lockstep batch: advances `count` candidate walks
  /// (attempt ids first_attempt..first_attempt+count) down the levels on the
  /// worker's FrontierPlane, group-sharing union-size estimations and
  /// predecessor expansions between walks with identical symbol histories,
  /// and applies the base-case accept/reject per walk. Walk j draws only
  /// from Rng::ForSubstream(seed, walk_key, first_attempt + j), which is
  /// what makes results invariant to the batch width. Accepted walk ids land
  /// in ws.arena.accepted in attempt order.
  void RunWalkBatch(int level, const Bitset& state_set, double phi0,
                    uint64_t walk_key, int64_t first_attempt, int count,
                    WorkerScratch& ws);

  /// One finished walk batch as an attempt-order scan reads it: walk w's
  /// outcome is outcomes[w] (SampleArena::kOutcome* codes), accepted lists
  /// the accepted walk ids in attempt order, and — on the draw path — walk
  /// w's word starts at words + w·word_stride.
  struct WalkBatchView {
    int count = 0;
    const uint8_t* outcomes = nullptr;
    const int32_t* accepted = nullptr;
    int num_accepted = 0;
    const Symbol* words = nullptr;
    size_t word_stride = 0;
  };

  /// Consumes a finished batch in attempt order: calls take(w) for each
  /// accepted walk w until it returns true (the accept that meets the
  /// caller's target), then folds the outcomes of every attempt through
  /// that one — all `count` when none does — into `diag` (sample_calls,
  /// sample_success, fail_*). Returns the attempts consumed. The later
  /// walks are as if they never ran, so the per-walk counters count exactly
  /// the attempts a sequential batch_width = 1 run executes (see
  /// FprasDiagnostics::sample_calls).
  template <typename Take>
  static int ConsumeInAttemptOrder(const WalkBatchView& batch,
                                   FprasDiagnostics* diag, Take&& take);

  /// Results of one parallel draw window, kept for the attempt-order scan:
  /// batch k's walks own slot k (strided by the batch width) of each slab.
  struct DrawWindow {
    std::vector<int> counts;        ///< walks in batch k
    std::vector<int> num_accepted;  ///< accepted walks of batch k
    std::vector<uint8_t> outcomes;  ///< walk outcomes, slot k
    std::vector<int32_t> accepted;  ///< accepted walk ids, slot k
    std::vector<Symbol> words;      ///< accepted words at w·level, slot k
  };

  /// The batches the next draw window runs for `owed` more accepts within
  /// `attempts_left` attempts; 1 means one batch inline on draws_[0].
  int64_t DrawWindowBatches(int64_t owed, int64_t attempts_left) const;

  /// Runs `batches` walk batches over the attempts from the cursor on the
  /// draw pool, into window_ (at most `attempts_left` attempts in all).
  void RunDrawWindow(int level, const Bitset& alive, double gamma0,
                     int64_t batches, int64_t attempts_left);

  /// Refills S(q^ℓ) with up to xns lockstep attempts, padding to ns
  /// (Alg. 3 lines 20-30).
  void RefillSamples(StateId q, int level, WorkerScratch& ws);

  /// One (q, ℓ) cell of Algorithm 3 (lines 12-30): count union, perturbation
  /// branch, sample refill. Reads only level ℓ−1 tables; writes only
  /// levels_[ℓ].cells[q] and `ws`.
  void ProcessCell(StateId q, int level, WorkerScratch& ws);

  /// One pipeline step: computes LevelState computed_level_+1 by fanning its
  /// reachable cells over the pool and joining (the level barrier), reading
  /// only the frozen LevelState below, then advances the cursor.
  Status AdvanceLevel(ThreadPool& pool);

  double PerturbedCount(int level, Rng& rng);

  /// Sets levels_[level].accepted_count = |L(A_ℓ)| once the level's cells
  /// are final — the one place the value is computed, called before the
  /// release store that publishes the level. Its AppUnion (≥ 2 live
  /// accepting states) runs on workers_[0], idle once the sweep has joined.
  void ComputeAcceptedCount(int level);

  const Nfa* nfa_;
  FprasParams params_;
  UnrolledNfa unrolled_;
  uint64_t seed_;
  /// Next post-run attempt id: every SampleAcceptedInto attempt
  /// draws from Rng::ForSubstream(seed, draw-tag, counter++), so the draw
  /// sequence depends only on how many attempts ran before — not on batch
  /// width or thread count.
  int64_t post_attempt_counter_ = 0;
  int batch_width_ = FprasParams::kDefaultBatchWidth;  ///< resolved by Run()
  /// Worker slot scratch; workers_[i] is owned by pool worker slot i during
  /// AdvanceLevel's fan-out, and workers_[0] runs each level's
  /// ComputeAcceptedCount after the join.
  std::vector<WorkerScratch> workers_;
  /// The post-run draw path's scratch, one bundle per draw worker (T of
  /// them): draws never share scratch with the sweep workers, so serve-mode
  /// readers may draw against published levels while one writer thread
  /// runs AdvanceLevel above them (see the "Serve-mode seam" file comment).
  /// draws_[0] runs inline batches and holds the per-walk counters of
  /// every consumed attempt; draws_[i] belongs to draw-pool slot i.
  std::vector<WorkerScratch> draws_;
  /// Pool of the parallel draw windows, created by the first draw that
  /// runs one and reset by Prepare(). Separate from pool_ because a draw
  /// may run while RunToLevel fans a level out (ParallelFor is not
  /// reentrant); draws are serialized by their callers, so it has one
  /// window in flight at a time.
  std::unique_ptr<ThreadPool> draw_pool_;
  DrawWindow window_;  ///< the last parallel window's batch results
  /// Lazily-created level-sweep pool, reused across every RunToLevel call of
  /// one prepared run (incremental extensions must not respawn threads per
  /// step). Reset by Prepare(); idle (condition-wait) between sweeps.
  std::unique_ptr<ThreadPool> pool_;
  /// The pipeline: levels_[ℓ] is frozen once computed (ℓ <= computed_level_).
  /// Pre-sized to horizon()+1 by Prepare(), so extension never reallocates —
  /// concurrent readers of frozen levels hold stable pointers.
  std::vector<LevelState> levels_;
  /// Highest computed level; -1 until Prepare() installs level 0. Atomic so
  /// serve-mode readers can poll it against a concurrently extending writer;
  /// AdvanceLevel stores with release ordering after freezing the level.
  std::atomic<int> computed_level_{-1};
  /// Cross-batch descent cache (sizes + all predecessor rows per (level,
  /// frontier), and the sample-path union memo per (level, Pred set)),
  /// shared across workers. Reset by Prepare() from
  /// params_.descent_cache_capacity.
  DescentCache descent_;
  double run_wall_seconds_ = 0.0;
  mutable FprasDiagnostics diag_;  ///< diagnostics() merge target
  bool prepared_ = false;  ///< Prepare() succeeded (accessor precondition)
};

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// User-facing options for ApproxCount.
struct CountOptions {
  double eps = 0.2;    ///< multiplicative accuracy ε of the estimate
  double delta = 0.1;  ///< failure probability δ
  Schedule schedule = Schedule::kFaster;  ///< sample-budget schedule to run
  /// Practical() by default: the faithful worst-case constants are
  /// infeasible on any hardware (DESIGN.md §2) — opt in via Faithful().
  Calibration calibration = Calibration::Practical();
  uint64_t seed = 0x5eedf00dULL;  ///< seed of the whole randomized run
  bool perturb_support = true;  ///< see FprasParams::perturb_support
  bool recycle_samples = true;  ///< see FprasParams::recycle_samples
  /// Level-sweep worker threads (1 = sequential, 0 = all hardware threads).
  /// Bit-identical results for every value; see FprasParams::num_threads.
  int num_threads = 1;
  /// Cross-batch descent-cache entry budget (0 disables the cache, -1 = use
  /// the built-in default). Bit-identical results at every value; see
  /// FprasParams::descent_cache_capacity.
  int64_t descent_cache_capacity = -1;
};

/// Result of ApproxCount.
struct CountEstimate {
  double estimate = 0.0;        ///< ≈ |L(A_n)| within (1±ε) w.p. ≥ 1−δ
  FprasParams params;           ///< fully derived parameters of the run
  FprasDiagnostics diagnostics; ///< counters accumulated over the run
};

/// Derives the parameters of a run at horizon `n` over an `m`-state automaton
/// (FprasParams::Make) and copies every behavior and runtime knob of
/// `options` onto them — the one CountOptions → FprasParams mapping shared by
/// ApproxCount, ApproxCountAllLengths, and EngineSession::Create.
Result<FprasParams> ParamsFromOptions(const CountOptions& options, int m,
                                      int n);

/// The headline API: (ε,δ)-approximation of |L(A_n)| (Theorem 3).
Result<CountEstimate> ApproxCount(const Nfa& nfa, int n,
                                  const CountOptions& options = CountOptions());

/// Estimates |L(A_ℓ)| for every ℓ in 0..n from a single FPRAS run (index ℓ
/// of the result holds the length-ℓ estimate). One engine execution: every
/// level computes its |L(A_ℓ)| on the way to n, so this costs exactly what
/// ApproxCount(nfa, n) costs; index n is ApproxCount's estimate, bit for
/// bit.
Result<std::vector<double>> ApproxCountAllLengths(
    const Nfa& nfa, int n, const CountOptions& options = CountOptions());

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_ESTIMATOR_HPP_
