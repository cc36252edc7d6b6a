// EngineSession — the incremental, multi-query surface over the resumable
// LevelState pipeline (fpras/estimator.hpp).
//
// Algorithm 3's invariants make every prefix of a run reusable: after the
// sweep has computed levels 0..ℓ, the Inv-1 count estimates answer |L(A_j)|
// for every j ≤ ℓ and the Inv-2 sample multisets serve almost-uniform word
// draws at every j ≤ ℓ — and computing level ℓ+1 needs only level ℓ. A
// session therefore amortizes one expensive sweep across many queries:
//
//   auto session = EngineSession::Create(nfa, /*horizon=*/64, options);
//   session->CountAtLength(16);   // runs levels 1..16, answers
//   session->CountAtLength(12);   // already computed: O(1) cached read
//   session->SampleWords(16, 10); // draws against the same tables
//   session->CountAtLength(32);   // extends 17..32 — no recomputation
//   session->Save("run.ckpt");    // binary checkpoint (fpras/checkpoint.hpp)
//
// The horizon fixes the parameter derivation (β = ε/4n², ns, xns are
// functions of n): every answer the session ever gives carries the accuracy
// envelope of a fresh ApproxCount at the horizon, and extension past the
// horizon is refused rather than silently degrading the guarantee.
//
// Determinism contract (inherited from the engine's content-keyed RNG
// substreams): a session extended incrementally, resumed from a checkpoint —
// even on different num_threads / descent-cache knobs — and a fresh
// uninterrupted run at the same (nfa, horizon, eps, delta, schedule,
// calibration, seed) produce bit-identical estimates,
// per-(q,ℓ) tables, and draw sequences (tests/test_session.cpp,
// tests/test_checkpoint.cpp).
//
// Concurrent-read seam (serve mode, docs/ARCHITECTURE.md "Serve mode"): the
// Shared* accessors answer queries from the computed prefix of levels while
// at most ONE thread extends the session (ExtendTo / CountAtLength /
// CountFor / SampleWords are writer-side, and each writer query is ExtendTo
// followed by its Shared* read — one query path). The engine's
// computed_level() is the one fence: each level, with its |L(A_ℓ)|
// estimate, is release-published as soon as the sweep finishes it, so
// readers see level-complete prefixes mid-extension and never block each
// other: SharedCountAtLength / SharedCountFor are lock-free, and
// SharedSampleWords serializes only against other draws (one internal
// mutex around the shared draw cursor), never against counts. Reader
// answers are bit-identical to a quiesced session at the same length — the
// engine computes each level's values once and readers only read them.

#ifndef NFACOUNT_FPRAS_SESSION_HPP_
#define NFACOUNT_FPRAS_SESSION_HPP_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpras/estimator.hpp"

namespace nfacount {

/// Runtime knobs that may be changed when resuming a session: worker
/// threads and descent-cache budget. Neither can change a result — only
/// wall-clock time or memory. Symbol-class compression
/// (automata/symbol_classes.hpp) is always on, not a knob.
struct SessionKnobs {
  int num_threads = 1;  ///< see FprasParams::num_threads
  /// Descent-cache entry budget for the resumed session (-1 keeps the
  /// built-in default). Runtime-only like the other knobs: checkpoints do
  /// not serialize it, and results are bit-identical at every value. See
  /// FprasParams::descent_cache_capacity.
  int64_t descent_cache_capacity = -1;
};

class EngineSession;

/// Forward declaration of the checkpoint loader (fpras/checkpoint.hpp).
Result<EngineSession> LoadSessionCheckpoint(const std::string& path,
                                            const SessionKnobs* knobs);

/// A long-lived FPRAS run serving count and sampling queries at any computed
/// length, extensible level by level up to its horizon, and persistable as a
/// binary checkpoint. Owns a private copy of the automaton, so the session
/// (and its checkpoints) are self-contained. Movable, not copyable.
class EngineSession {
 public:
  /// Hard cap on `count` per SampleWords / SharedSampleWords call. Bounds
  /// the result-vector allocation and keeps the per-call rejection budget
  /// (kAttemptsPerDraw * count) far from int64 overflow, so an absurd count
  /// is a clean InvalidArgument instead of a bad_alloc. Larger requests
  /// chunk into multiple calls — the draw stream concatenates seamlessly.
  static constexpr int64_t kMaxDrawsPerCall = int64_t{1} << 20;
  /// Rejection budget per requested draw: well beyond the Theorem 2(2)
  /// bound, so exhausting it indicates inaccurate tables rather than bad
  /// luck.
  static constexpr int64_t kAttemptsPerDraw = 4096;

  /// Builds a session for `nfa` with parameters derived at `horizon` and
  /// computes level 0 only — level sweeps run lazily on the first query or
  /// ExtendTo. All CountOptions fields apply (eps, delta, schedule,
  /// calibration, seed, behavior flags, thread and cache knobs).
  static Result<EngineSession> Create(const Nfa& nfa, int horizon,
                                      const CountOptions& options);

  /// Advances the level sweep until `level` is computed; no-op when already
  /// there. OutOfRange when level exceeds the horizon (the parameter
  /// derivation cannot be extended in place — create a session with a larger
  /// horizon instead).
  Status ExtendTo(int level);

  /// (ε,δ)-estimate of |L(A_length)| — ExtendTo(length), then
  /// SharedCountAtLength: the per-length estimate the engine computed with
  /// the level (no AppUnion per query). Every length shares the horizon's
  /// accuracy envelope.
  Result<double> CountAtLength(int length);

  /// N(q^length), the per-state count estimate (0 for unreachable copies):
  /// ExtendTo(length), then SharedCountFor.
  Result<double> CountFor(StateId q, int length);

  /// Draws `count` almost-uniform words from L(A_length): ExtendTo(length),
  /// then SharedSampleWords. Consumes the session's counter-keyed draw
  /// streams, so the concatenation of all SampleWords results is one
  /// deterministic sequence — checkpoint save/restore continues it
  /// seamlessly. NotFound when the language at this length is estimated
  /// empty; ResourceExhausted when the per-draw rejection budget is exceeded
  /// (inaccurate tables); Invalid when `count` is negative or exceeds
  /// kMaxDrawsPerCall. Request
  /// all the words a caller needs in one call (chunked at kMaxDrawsPerCall):
  /// each call discards the speculative walks of its final batch, so
  /// one-word calls in a loop cost more per word than one call for all of
  /// them.
  Result<std::vector<Word>> SampleWords(int length, int64_t count);

  /// Writes the full session state to `path` as a versioned binary
  /// checkpoint (see docs/FILE_FORMATS.md "Session checkpoints").
  Status Save(const std::string& path) const;

  /// Restores a session from a checkpoint written by Save(). The optional
  /// `knobs` override the saved runtime knobs (results are knob-invariant).
  static Result<EngineSession> Load(const std::string& path,
                                    const SessionKnobs* knobs = nullptr);

  /// Rebuilds a session from already-deserialized parts (the checkpoint
  /// loader's entry point; usable by any other storage backend). Validates
  /// via FprasEngine::RestoreComputedState.
  static Result<EngineSession> Restore(std::unique_ptr<Nfa> nfa,
                                       const FprasParams& params,
                                       uint64_t seed, int computed_level,
                                       std::vector<LevelState> levels,
                                       int64_t draw_cursor);

  // --- Concurrent-read surface (serve mode) -------------------------------
  //
  // Safe to call from any number of reader threads while one other thread
  // extends the session; see the "Concurrent-read seam" file comment. All
  // other mutating entry points (ExtendTo and the query methods above,
  // Save) are writer-side: callers must ensure at most one of them runs at
  // a time, and none runs concurrently with itself.

  /// |L(A_length)| as the engine stored it with the level. Never extends and
  /// never blocks: FailedPrecondition when `length` is beyond
  /// computed_level() (the caller decides whether to extend or fail the
  /// query).
  Result<double> SharedCountAtLength(int length) const;

  /// N(q^length) read directly from the frozen computed level (lock-free).
  /// Same visibility rule as SharedCountAtLength.
  Result<double> SharedCountFor(StateId q, int length) const;

  /// Draws `count` words from L(A_length) against the computed prefix,
  /// serialized against other draws by an internal mutex (counts are never
  /// blocked). Inside the chunk, a session with num_threads > 1 runs large
  /// requests as windows of walk batches on the engine's own draw pool and
  /// draw bundles — never the sweep's, so a chunk may run beside an
  /// extending writer — and scans them in attempt order (see
  /// FprasEngine::SampleAcceptedInto). The chunk consumes the same
  /// counter-keyed draw stream as SampleWords at every thread count: if
  /// `cursor_start` is non-null it receives the draw-cursor value at which
  /// this chunk began, so concurrent callers can reassemble their chunks
  /// into the deterministic single-threaded sequence.
  Result<std::vector<Word>> SharedSampleWords(int length, int64_t count,
                                              int64_t* cursor_start = nullptr);

  /// Approximate bytes held live by the computed tables (the eviction
  /// budget's input). Reads only computed levels, so it may run while an
  /// extension is in flight — the number then trails by the level in flight.
  int64_t ApproxResidentBytes() const;

  /// Thread-safe snapshot of the shared caches' atomic counters — the
  /// serve-mode stats surface (diagnostics() requires quiescence).
  FprasEngine::CacheCounters cache_counters() const {
    return engine_->cache_counters();
  }

  // ------------------------------------------------------------------------

  /// Highest level computed so far (0 right after Create).
  int computed_level() const { return engine_->computed_level(); }
  /// The immutable maximum level of this session.
  int horizon() const { return engine_->horizon(); }
  /// The session's private automaton copy.
  const Nfa& nfa() const { return *nfa_; }
  /// Fully derived parameters (fixed at the horizon).
  const FprasParams& params() const { return engine_->params(); }
  /// Seed of the whole randomized session.
  uint64_t seed() const { return seed_; }
  /// Counters accumulated over every extension and draw so far. Not part of
  /// checkpoints: a resumed session restarts its counters at zero.
  const FprasDiagnostics& diagnostics() const {
    return engine_->diagnostics();
  }
  /// The underlying engine (table inspection, invariant tests).
  const FprasEngine& engine() const { return *engine_; }

 private:
  EngineSession(std::unique_ptr<Nfa> nfa, std::unique_ptr<FprasEngine> engine,
                uint64_t seed);

  /// Validates a query length against the horizon as Status (the session
  /// surface reports misuse as errors, not NFA_CHECK aborts).
  Status CheckLength(int length) const;

  std::unique_ptr<Nfa> nfa_;         ///< owned copy; engine_ points into it
  std::unique_ptr<FprasEngine> engine_;
  uint64_t seed_ = 0;
  /// Serializes SharedSampleWords chunks: the draw cursor is one shared
  /// sequential stream (that is the determinism contract, not a limit).
  /// Held by unique_ptr so the session stays movable; never null after
  /// construction.
  std::unique_ptr<std::mutex> draw_mu_;
};

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_SESSION_HPP_
