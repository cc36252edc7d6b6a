// Parameter schedules of the FPRAS (Algorithm 3, lines 1-3) and of the
// ACJR-style baseline, plus the calibration knobs described in DESIGN.md §2.
//
// Faithful formulas (calibration = 1):
//   β    = ε / (4n²)                                       (per-level accuracy)
//   η    = δ / (2·n·m)                                     (per-(q,ℓ) failure)
//   ns   = 4096·e·n⁴/ε² · ln(4096·m²·n²·ln(ε⁻²)/δ)         (samples kept)
//   xns  = ns · 12·(1 − 2/(3e²))⁻¹ · ln(8/η)               (sampling attempts)
//   t    = 12·(1+ε_sz)²·m̄/ε'² · ln(4/δ')                  (AppUnion trials)
//
// The paper's constants are worst-case and infeasible at any interesting size
// (ns ≥ 10^10 for n = 10); the Calibration struct scales the *leading
// constants only* — the structural dependence on m, n, ε, δ is preserved so
// the scaling benchmarks (E3-E5) still measure the claimed shapes, and the
// accuracy benchmarks (E1) verify the (1±ε, δ) guarantee empirically.

#ifndef NFACOUNT_FPRAS_PARAMS_HPP_
#define NFACOUNT_FPRAS_PARAMS_HPP_

#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace nfacount {

/// Which per-(state,level) sample-budget schedule to run the template with.
enum class Schedule {
  kFaster,  ///< this paper: ns = ~O(n⁴/ε²), independent of m
  /// ACJR-style baseline (Arenas, Croquevielle, Jayaram, Riveros; STOC'19 /
  /// JACM'21): ns = (m·n/ε)⁷, the comparator the paper improves on.
  ///
  /// Substitution note (DESIGN.md §2): no public implementation of the ACJR
  /// FPRAS exists, and its worst-case constants are even further from
  /// feasible than this paper's. Both algorithms instantiate the template of
  /// Fig. 1; the complexity gap the paper reports is driven by (a) the
  /// per-(state,level) sample budget — O(m⁷n⁷/ε⁷) for ACJR vs ~O(n⁴/ε²)
  /// here — and (b) the union bound regime (2^{mn} events vs mn events). The
  /// baseline is therefore this schedule on the shared template, which
  /// reproduces the quantity the paper actually compares (samples per state
  /// and the time blow-up it induces); calibration applies the same way as
  /// for kFaster, so the two are comparable at equal calibration. Benchmarks
  /// E2-E5 sweep both schedules.
  kAcjr,
};

const char* ScheduleName(Schedule schedule);

/// Scaling knobs on the worst-case constants. 1.0 everywhere = faithful.
struct Calibration {
  double ns_scale = 1.0;     ///< multiplies the ns formula
  double xns_log_scale = 1.0;///< multiplies the ln(8/η) attempt multiplier
  double trial_scale = 1.0;  ///< multiplies AppUnion's trial count t
  int64_t ns_floor = 8;      ///< lower bound after scaling
  int64_t trial_floor = 8;   ///< lower bound after scaling
  double xns_multiplier_floor = 4.0;  ///< xns >= this · ns after scaling

  /// Faithful paper constants (only feasible for micro instances).
  static Calibration Faithful() { return Calibration{}; }

  /// Laptop-scale preset used by the test suite and benchmarks; chosen so a
  /// (m=8, n=10) instance runs in milliseconds while the empirical accuracy
  /// stays well inside (1±ε) (verified by tests/test_fpras.cpp and E1).
  static Calibration Practical();

  /// Heavier preset for the accuracy census benches (more samples/trials).
  static Calibration Thorough();
};

/// Fully derived parameters for one FPRAS run.
struct FprasParams {
  Schedule schedule = Schedule::kFaster;
  int m = 0;          ///< number of NFA states
  int n = 0;          ///< word length
  double eps = 0.2;   ///< overall accuracy ε
  double delta = 0.1; ///< overall confidence δ

  double beta = 0.0;  ///< ε/(4n²)
  double eta = 0.0;   ///< δ/(2nm)
  int64_t ns = 0;     ///< per-(q,ℓ) samples kept
  int64_t xns = 0;    ///< per-(q,ℓ) sampling attempts

  Calibration calibration;

  // Behavior flags (DESIGN.md §4; each ablated in E9). Both change results.
  bool perturb_support = true; ///< Alg. 3 lines 16-19 resampling branch
  /// Under calibration, AppUnion trial counts can exceed sample-list lengths,
  /// which would make the paper's Line-8 starvation systematic; recycling the
  /// lists keeps the Y/t estimator unbiased (see union_mc.hpp). Set false to
  /// get the paper's literal break-out behavior.
  bool recycle_samples = true;
  /// Worker threads of the level-sweep executor (Algorithm 3's per-level
  /// (q,ℓ) fan-out). 1 = sequential in the calling thread; 0 = all hardware
  /// threads. Estimates, samples, and per-(q,ℓ) tables are bit-identical for
  /// every value — each cell draws from its own counter-based RNG substream
  /// (Rng::ForSubstream), so the thread count only changes wall-clock time.
  int num_threads = 1;
  /// Upper bound accepted for num_threads (validated by FprasEngine::Run).
  static constexpr int kMaxThreads = 4096;

  /// Candidate walks Algorithm 2 advances in lockstep on the FrontierPlane
  /// (fpras/plane.hpp). 0 = the built-in default (kDefaultBatchWidth).
  /// Estimates, tables, samples, and draws are bit-identical for every
  /// value — each candidate walk draws from its own attempt-indexed RNG
  /// substream, so the batch width only changes wall-clock time.
  /// Engine-internal: CountOptions and sessions always run the default, and
  /// checkpoints do not carry it; the width-invariance tests and benchmark
  /// E13 set it on an FprasEngine directly.
  int batch_width = 0;

  /// Default lockstep batch width (batch_width = 0). 16 keeps the overshoot
  /// past a filled sample set small while amortizing per-batch costs.
  static constexpr int kDefaultBatchWidth = 16;
  /// Upper bound accepted for batch_width (validated by FprasEngine::Run).
  static constexpr int kMaxBatchWidth = 4096;

  /// The lockstep width Run() actually uses: batch_width, or the default
  /// when 0.
  int ResolvedBatchWidth() const {
    return batch_width == 0 ? kDefaultBatchWidth : batch_width;
  }

  /// Default entry budget of the cross-batch descent cache.
  static constexpr int64_t kDefaultDescentCacheCapacity = int64_t{1} << 20;

  /// Max (level, frontier-set) entries of the cross-batch descent cache
  /// (fpras/estimator.hpp DescentCache), the engine's only union-size cache:
  /// memoized per-symbol union sizes and predecessor-row expansions shared
  /// across refill batches, cells, and post-run draws. 0 caches nothing —
  /// the uncached reference, roughly 100x slower. The cache is pure —
  /// estimates, tables, and draws are bit-identical at every capacity; the
  /// knob only trades memory for repeated descent work.
  /// Runtime-only (not serialized into checkpoints — carried by
  /// SessionKnobs on restore); NFACOUNT_DESCENT_CACHE overrides it
  /// process-wide (a malformed value fails Prepare with Invalid).
  int64_t descent_cache_capacity = kDefaultDescentCacheCapacity;

  /// δ parameter of the AppUnion calls that compute N(q^ℓ)
  /// (Alg. 3 line 15): η / (2·(1 − 2^{-(n+1)})).
  double DeltaForCountUnion() const;

  /// δ parameter handed to sample() by Alg. 3 line 23: η / (2·xns).
  double EtaForSampleCall() const;

  /// ε_sz at level ℓ: (1+β)^{ℓ-1} − 1 (Alg. 2 line 3 / Alg. 3 line 14).
  double EpsSzAtLevel(int level) const;

  /// Derives all parameters. Validates ranges (0 < ε, 0 < δ < 1, n ≥ 0,
  /// m ≥ 1) and guards the formulas for ε ≥ 1 (inner log clamped).
  static Result<FprasParams> Make(Schedule schedule, int m, int n, double eps,
                                  double delta,
                                  const Calibration& calibration = Calibration());

  std::string ToString() const;
};

/// The paper's sample budget ns(m, n, ε, δ) before calibration — exposed
/// separately so benchmark E2 can tabulate schedules without running anything.
double FasterScheduleNs(int m, int n, double eps, double delta);

/// The ACJR-style budget (m·n/ε)⁷ before calibration (Schedule::kAcjr).
double AcjrScheduleNs(int m, int n, double eps);

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_PARAMS_HPP_
