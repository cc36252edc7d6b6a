// The phases the workloads are assembled from: timed session builds, the
// draw phase, the writer cycle (served or in-process), and the layer probes.

#ifndef PERFBENCH_PHASES_HPP_
#define PERFBENCH_PHASES_HPP_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"

namespace perfbench {

/// State of one pass over a workload. A traced run makes two passes, the
/// first untraced (its end-to-end metrics are the baseline of the tracing
/// overhead) and the second traced.
struct RunContext {
  RunContext(const Args& run_args, Gate* run_gate, Tracer* run_tracer,
             std::string pass_workdir)
      : args(run_args),
        gate(run_gate),
        tracer(run_tracer),
        span(run_tracer != nullptr ? run_tracer->NewBuffer() : nullptr),
        workdir(std::move(pass_workdir)) {}

  bool traced() const { return tracer != nullptr; }
  Tracer::Buffer* NewBuffer() const {
    return tracer != nullptr ? tracer->NewBuffer() : nullptr;
  }
  /// The workload's phase duration: `share` of --seconds.
  double Seconds(double share) const { return share * args.seconds; }

  const Args& args;
  Gate* gate;
  Tracer* tracer;         ///< null in the untraced pass
  Tracer::Buffer* span;   ///< the main thread's span buffer (or null)
  std::string workdir;    ///< working directory of this pass
  MetricSet e2e;          ///< end-to-end metrics
  MetricSet layers;       ///< per-layer metrics (complete in traced passes)
  double rel_err = kNotMeasured;  ///< |estimate/exact - 1| at the horizon
};

/// Creates a session (Create: unroll, symbol classes, Prepare).
std::unique_ptr<EngineSession> CreateSession(const Nfa& nfa, int horizon,
                                             uint64_t seed, int threads,
                                             RunContext* ctx, Tally* tally);

/// Extends `session` to its horizon and returns the wall seconds. With
/// `per_level` it extends one level at a time and records
/// fpras.level_s.<level>.
double BuildSession(EngineSession* session, bool per_level, RunContext* ctx,
                    Tally* tally);

/// Build-side layer metrics from a session's diagnostics taken right after
/// its single-thread build: AppUnion and walk counters.
void RecordBuildLayers(const nfacount::FprasDiagnostics& d,
                       double build_seconds, RunContext* ctx);

/// Timed SampleWords(horizon, 1024) chunks of a run and the draw-cache
/// counter deltas across them.
struct DrawStats {
  std::vector<double> chunk_us;
  int64_t descent_hits = 0;
  int64_t descent_misses = 0;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
};

/// Draws `chunks` SampleWords(horizon, 1024) chunks after one untimed
/// warm-up chunk, checking every word, and appends them to `stats`.
void DrawChunks(EngineSession* session, const Nfa& nfa, int chunks,
                RunContext* ctx, Tally* tally, DrawStats* stats);

/// draws_per_s (1024 over the trimmed mean chunk time) and the draw-side
/// layer metrics.
void RecordDrawMetrics(const DrawStats& stats, RunContext* ctx);

/// UnrolledNfa::PredSetInto over seeded frontiers of the session's
/// automaton; sets automata.predset_ns and the table-size metrics.
void EngineProbes(const EngineSession& session, RunContext* ctx);

/// EngineSession::Save and Load of one writer session; sets the
/// fpras.checkpoint_* metrics.
void CheckpointProbe(RunContext* ctx, Tally* tally);

// ---------------------------------------------------------------------------
// The writer cycle
// ---------------------------------------------------------------------------

/// Steps of one writer cycle, in order.
enum WriterStep { kRegister, kExtend, kCount, kSample, kEvict, kRevive,
                  kUnregister, kNumWriterSteps };

/// Horizon of every writer session.
constexpr int kWriterHorizon = 8;

/// One writer cycle: Register a fresh RandomNfa(32) (automaton and session
/// seed WriterSeed(cycle)), ExtendTo(8), count, sample, Evict, count again
/// (revives from the checkpoint), Unregister.
struct WriterCycle {
  int cycle = 0;
  bool timed = false;
  double step_ms[kNumWriterSteps] = {};
  double total_ms = 0.0;
  double count_before = std::numeric_limits<double>::quiet_NaN();
  double count_after = std::numeric_limits<double>::quiet_NaN();
};

/// Writer cycles straight against an in-process SessionRegistry.
struct RegistryWriter {
  nfacount::serve::SessionRegistry* registry;
};

/// Writer cycles over one daemon connection.
struct ClientWriter {
  nfacount::serve::ServeClient* client;
};

WriterCycle RunWriterCycle(RegistryWriter target, int cycle, Tally* tally,
                           Tracer::Buffer* span);
WriterCycle RunWriterCycle(ClientWriter target, int cycle, Tally* tally,
                           Tracer::Buffer* span);

/// Rebuilds each distinct writer session in-process from its registration
/// tuple and checks every cycle's two served counts against it bit for bit,
/// plus the sanity band.
void VerifyWriterCycles(const std::vector<WriterCycle>& cycles,
                        Tally* tally);

/// write_p50_ms (median timed cycle) and the per-step layer medians.
void RecordWriterMetrics(const std::vector<WriterCycle>& cycles,
                         RunContext* ctx);

/// Runs cycles `first`, `first` + 1, ... back to back and appends them to
/// `cycles`: one untimed warm-up cycle when `warm_up`, then `timed` timed.
template <class Target>
void WriterProbe(Target target, int first, int timed, bool warm_up,
                 RunContext* ctx, Tally* tally,
                 std::vector<WriterCycle>* cycles) {
  const int last = first + timed + (warm_up ? 1 : 0);
  for (int cycle = first; cycle < last; ++cycle) {
    cycles->push_back(RunWriterCycle(target, cycle, tally, ctx->span));
    cycles->back().timed = !warm_up || cycle > first;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_HPP_
