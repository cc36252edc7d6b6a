// Shared machinery of the perfbench end-to-end benchmark: command line,
// correctness gate, latency statistics, the in-memory span tracer, metric
// collection, provenance, and the seeded inputs every workload draws from.
// The benchmark only calls the library's public API; nothing here reaches
// into src/.

#ifndef PERFBENCH_HARNESS_HPP_
#define PERFBENCH_HARNESS_HPP_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "automata/nfa.hpp"
#include "fpras/session.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nfacount::EngineSession;
using nfacount::Nfa;
using nfacount::Word;

/// Monotonic nanoseconds (steady_clock), the one clock of every timing.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;    ///< working directory (spill dirs, checkpoints)
  std::string trace_dir;  ///< where the span dump of a traced run goes
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

/// Parses argv; returns false (after a usage message) on a malformed line.
bool ParseArgs(int argc, char** argv, Args* args);

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Attempted and failed checks of one phase. Each thread fills its own tally
/// and the main thread merges them after the join.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure.empty()) first_failure = what;
    }
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

/// Per-phase tallies, in first-use order. Main thread only; a returned
/// reference stays valid while the gate lives.
class Gate {
 public:
  Tally& Phase(const std::string& name);
  int64_t attempted() const;
  int64_t failed() const;
  /// One "gate <phase>: attempted N failed M" line per phase.
  void Print() const;

 private:
  std::deque<std::pair<std::string, Tally>> phases_;
};

/// Bit-for-bit equality (the determinism contract's notion of "same").
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every word has `length` symbols and is accepted by `nfa`.
void CheckWords(const std::vector<Word>& words, int length, const Nfa& nfa,
                Tally* tally);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Sentinel for a layer metric the workload does not exercise, or a
/// percentile with fewer than ten samples beyond it.
constexpr double kNotMeasured = -1.0;

double Median(std::vector<double> values);

/// Mean of the middle 80% of `values` (every value when fewer than ten).
/// Host contention switches a phase between a fast and a slow state within
/// seconds; a mean moves smoothly with the share of time spent in each,
/// where a median jumps from one state to the other. The trim drops
/// isolated bursts.
double TrimmedMean(std::vector<double> values);

/// Prints "samples <name>: v1 v2 ..." in the report, the values a metric
/// was taken from, in the order they were measured.
void PrintSamples(const char* name, const std::vector<double>& values);

/// Nearest-rank q-quantile of `values` (+inf entries are failed requests,
/// which miss every latency limit). Returns kNotMeasured when fewer than ten
/// samples lie beyond it.
double SupportedPercentile(std::vector<double> values, double q);

/// One timed request (or request train): when it completed (µs after the
/// phase began), how long it took in µs (+inf when it failed), and whether
/// it was a draw. Compact, so that the benchmark's own bookkeeping barely
/// moves peak_rss_mb.
struct Completion {
  uint32_t done_us;
  float us;
  bool sample;
};

/// A timed read phase summarized over up to six consecutive equal-count
/// windows (completion order), each holding at least 2000 request trains so
/// its p99 has twenty beyond it: p50, p99 and the throughput are each the
/// mean of the windows' values.
struct WindowedReads {
  double ops_per_s = kNotMeasured;
  double p50_us = kNotMeasured;
  double p99_us = kNotMeasured;
  int64_t samples = 0;
  std::vector<double> window_ops_per_s;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
};

/// `trains` (request trains of `requests_per_train` requests each) must be
/// sorted by completion. A window's throughput is its requests over its wall
/// time (from the previous window's last completion, or the phase start), or
/// over the time spent inside the requests when `busy_time` (one caller
/// issuing requests in-process).
WindowedReads SummarizeReads(const std::vector<Completion>& trains,
                             int requests_per_train, bool busy_time);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// The module a span's call goes into; kBench marks the benchmark's own
/// phases (the parents of the layer spans).
enum class Layer : uint8_t { kBench, kAutomata, kCounting, kFpras, kServe,
                             kUtil };
constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

/// One timed call. `parent` is the enclosing span on the same thread (0 at
/// a thread's root); `request` ties the spans of one request together.
struct Span {
  const char* name;
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  int64_t request;
};

/// In-memory span store: one append-only buffer per thread, dumped and
/// folded into per-layer self times when the run ends.
class Tracer {
 public:
  class Buffer {
   public:
    explicit Buffer(uint32_t thread) : thread_(thread) {}
    uint64_t Open();
    void Close(uint64_t id, const char* name, Layer layer, int64_t start_ns,
               int64_t request);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    uint32_t thread_;
    uint64_t next_ = 0;
    std::vector<uint64_t> open_;
    std::vector<Span> spans_;
  };

  /// A fresh buffer for the calling thread (thread-safe).
  Buffer* NewBuffer();

  /// Self time per layer in seconds: each span's duration minus the time
  /// its child spans cover.
  std::vector<double> SelfSeconds() const;
  int64_t SpanCount() const;
  /// Writes every span as one CSV row; returns false when the file fails.
  bool Dump(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when the buffer is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, Layer layer, const char* name,
             int64_t request = -1)
      : buffer_(buffer), layer_(layer), name_(name), request_(request) {
    if (buffer_ != nullptr) {
      id_ = buffer_->Open();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->Close(id_, name_, layer_, start_ns_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_;
  Layer layer_;
  const char* name_;
  int64_t request_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

/// The estimator sanity band. Every per-length estimate of `session` (whose
/// levels 1..horizon are computed) must be finite, positive when the exact
/// count is, and within 4x of ExactCountViaDfa; and the geometric mean of
/// the estimate/exact ratios over all lengths must lie in [2/3, 3/2]. An
/// estimator off by one level (a factor |Σ| = 2 everywhere) or in scale
/// fails; a correct one, whose single answers stray up to +85% / -55% at
/// δ = 0.2, passes. Deliberately not the (1±ε) envelope. Stores
/// |estimate/exact - 1| at the horizon in *rel_err.
void CheckEstimates(EngineSession& session, const Nfa& nfa, Tally* tally,
                    double* rel_err, Tracer::Buffer* span);

// ---------------------------------------------------------------------------
// Metrics, provenance
// ---------------------------------------------------------------------------

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value of `name`, or kNotMeasured when absent.
  double Get(const std::string& name) const;
  /// {"<name>": {"value": v, "unit": "u"}, ...}
  std::string RenderJson() const;
  /// One "metric <name> = <value> <unit>" line each.
  void Print(const char* prefix) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The process's ru_maxrss in MiB.
double PeakRssMb();

/// Host steal ticks so far (the "cpu" line of /proc/stat; -1 if unreadable).
int64_t StealTicks();

/// Prints the provenance block as one "provenance {...}" JSON line.
void PrintProvenance(const Args& args, int64_t steal_ticks_used);

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// RandomNfa(m, 0.3, 0.25) drawn from Rng(automaton_seed): the E3 family.
Nfa E3Nfa(int m, uint64_t automaton_seed);

/// Registration seed of writer cycle `cycle`: the cycle number modulo 16,
/// so a run verifies at most 16 distinct writer sessions. (Seed 69 is one
/// of the rare automata whose FPRAS tables come out 4x low, within δ, and
/// whose draws then exhaust their attempt budget.)
int WriterSeed(int cycle);

/// The automaton of a writer registration: RandomNfa(32) from Rng(seed).
Nfa WriterNfa(int seed);

/// Session options of every benchmark session: ε = 0.3, δ = 0.2, the
/// practical calibration.
nfacount::CountOptions SessionOptions(uint64_t seed, int threads);

/// One read request.
struct ReadOp {
  bool sample = false;  ///< draw kSampleWords words at the horizon
  int length = 0;       ///< count length in 1..horizon, or the horizon
};
constexpr int64_t kSampleWords = 16;

/// The seeded read mix: in every block of four requests, one (at a seeded
/// position) draws kSampleWords words at the horizon and the other three
/// count at a seeded length in 1..horizon.
class ReadMix {
 public:
  ReadMix(uint64_t seed, uint64_t stream, int horizon);
  ReadOp Next();

 private:
  nfacount::Rng rng_;
  int horizon_;
  int slot_ = 0;
  int sample_slot_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP_
