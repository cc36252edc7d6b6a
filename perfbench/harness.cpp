#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "automata/generators.hpp"
#include "counting/exact.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: %s wants a number\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->workdir.empty() || args->seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --workdir <dir> [--trace-dir <dir>]\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

Tally& Gate::Phase(const std::string& name) {
  for (auto& phase : phases_) {
    if (phase.first == name) return phase.second;
  }
  phases_.emplace_back(name, Tally());
  return phases_.back().second;
}

int64_t Gate::attempted() const {
  int64_t total = 0;
  for (const auto& phase : phases_) total += phase.second.attempted;
  return total;
}

int64_t Gate::failed() const {
  int64_t total = 0;
  for (const auto& phase : phases_) total += phase.second.failed;
  return total;
}

void Gate::Print() const {
  for (const auto& phase : phases_) {
    std::printf("gate %-16s attempted %lld failed %lld%s%s\n",
                phase.first.c_str(),
                static_cast<long long>(phase.second.attempted),
                static_cast<long long>(phase.second.failed),
                phase.second.failed > 0 ? "  first: " : "",
                phase.second.first_failure.c_str());
  }
}

void CheckEstimates(EngineSession& session, const Nfa& nfa, Tally* tally,
                    double* rel_err, Tracer::Buffer* span) {
  const int horizon = session.horizon();
  double log_ratio_sum = 0.0;
  int ratios = 0;
  for (int length = 1; length <= horizon; ++length) {
    const std::string where = "estimate at length " + std::to_string(length);
    nfacount::Result<double> estimate = session.CountAtLength(length);
    const nfacount::Result<nfacount::BigUint> exact = [&] {
      ScopedSpan s(span, Layer::kCounting, "counting.exact_count_via_dfa",
                   length);
      return nfacount::ExactCountViaDfa(nfa, length);
    }();
    if (!estimate.ok() || !exact.ok()) {
      tally->Check(false, where + ": query failed");
      continue;
    }
    const double est = estimate.value();
    const double want = exact.value().ToDouble();
    tally->Check(std::isfinite(est) && est >= 0.0, where + " not finite");
    if (want == 0.0) {
      tally->Check(est == 0.0, where + ": nonzero for an empty language");
      continue;
    }
    const double ratio = est / want;
    tally->Check(ratio >= 0.25 && ratio <= 4.0,
                 where + " outside 4x of the exact count");
    if (ratio > 0.0) {
      log_ratio_sum += std::log(ratio);
      ++ratios;
    }
    if (length == horizon) *rel_err = std::fabs(ratio - 1.0);
  }
  const double geo_mean =
      ratios > 0 ? std::exp(log_ratio_sum / ratios) : 0.0;
  tally->Check(geo_mean >= 2.0 / 3.0 && geo_mean <= 1.5,
               "geometric-mean estimate/exact ratio outside [2/3, 3/2]");
}

void CheckWords(const std::vector<Word>& words, int length, const Nfa& nfa,
                Tally* tally) {
  for (const Word& word : words) {
    tally->Check(static_cast<int>(word.size()) == length &&
                     nfa.Accepts(word),
                 "drawn word of wrong length or not accepted");
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return kNotMeasured;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return kNotMeasured;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

void PrintSamples(const char* name, const std::vector<double>& values) {
  std::printf("samples %s:", name);
  for (double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

double SupportedPercentile(std::vector<double> values, double q) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0) return kNotMeasured;
  // Nearest rank: the smallest value with at least q·n samples at or below.
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < 10) return kNotMeasured;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

WindowedReads SummarizeReads(const std::vector<Completion>& trains,
                             int requests_per_train, bool busy_time) {
  WindowedReads out;
  out.samples = static_cast<int64_t>(trains.size());
  const int64_t windows =
      std::max<int64_t>(1, std::min<int64_t>(6, out.samples / 2000));
  uint32_t window_start_us = 0;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t begin = w * out.samples / windows;
    const int64_t end = (w + 1) * out.samples / windows;
    if (end <= begin) continue;
    std::vector<double> us;
    double busy_s = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      us.push_back(trains[static_cast<size_t>(i)].us);
      busy_s += trains[static_cast<size_t>(i)].us * 1e-6;
    }
    const uint32_t window_end_us = trains[static_cast<size_t>(end - 1)].done_us;
    const double seconds =
        busy_time ? busy_s
                  : static_cast<double>(window_end_us - window_start_us) * 1e-6;
    window_start_us = window_end_us;
    out.window_ops_per_s.push_back(
        seconds > 0.0
            ? static_cast<double>((end - begin) * requests_per_train) / seconds
            : 0.0);
    out.window_p50_us.push_back(SupportedPercentile(us, 0.50));
    out.window_p99_us.push_back(SupportedPercentile(us, 0.99));
  }
  out.ops_per_s = TrimmedMean(out.window_ops_per_s);
  out.p50_us = TrimmedMean(out.window_p50_us);
  out.p99_us = TrimmedMean(out.window_p99_us);
  return out;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kAutomata: return "automata";
    case Layer::kCounting: return "counting";
    case Layer::kFpras: return "fpras";
    case Layer::kServe: return "serve";
    case Layer::kUtil: return "util";
  }
  return "?";
}

uint64_t Tracer::Buffer::Open() {
  const uint64_t id = (static_cast<uint64_t>(thread_) << 40) | ++next_;
  open_.push_back(id);
  return id;
}

void Tracer::Buffer::Close(uint64_t id, const char* name, Layer layer,
                           int64_t start_ns, int64_t request) {
  const int64_t end_ns = NowNs();
  open_.pop_back();
  const uint64_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{name, layer, start_ns, end_ns, id, parent, request});
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(
      std::make_unique<Buffer>(static_cast<uint32_t>(buffers_.size() + 1)));
  return buffers_.back().get();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> self(kNumLayers, 0.0);
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      const auto it = child_ns.find(span.id);
      const int64_t children = it == child_ns.end() ? 0 : it->second;
      self[static_cast<size_t>(span.layer)] +=
          static_cast<double>(span.end_ns - span.start_ns - children) * 1e-9;
    }
  }
  return self;
}

int64_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += static_cast<int64_t>(buffer->spans().size());
  }
  return total;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,layer,name,start_ns,end_ns\n");
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      std::fprintf(f, "%llu,%llu,%lld,%s,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<long long>(span.request),
                   LayerName(span.layer), span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Metrics, provenance
// ---------------------------------------------------------------------------

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return kNotMeasured;
}

std::string MetricSet::RenderJson() const {
  nfacount::JsonObject all;
  for (const Entry& entry : entries_) {
    nfacount::JsonObject metric;
    metric.Set("value", entry.value).Set("unit", entry.unit);
    all.SetRaw(entry.name, metric.Render());
  }
  return all.Render();
}

void MetricSet::Print(const char* prefix) const {
  for (const Entry& entry : entries_) {
    std::printf("%s %-34s %.6g %s\n", prefix, entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return -1;
  for (int64_t& value : field) {
    if (!(stat >> value)) return -1;
  }
  return field[7];  // user nice system idle iowait irq softirq steal
}

namespace {

/// The calling process's CPU affinity as a list of CPU ids ("0,1,2,3").
std::string AffinityList(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string out;
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unavailable";
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    ++*count;
  }
  return out;
}

}  // namespace

void PrintProvenance(const Args& args, int64_t steal_ticks_used) {
  int affinity_count = 0;
  const std::string affinity = AffinityList(&affinity_count);
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  nfacount::JsonObject p;
  p.Set("git_sha", args.git_sha)
      .Set("source_digest", args.source_digest)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("compiler", __VERSION__)
      .Set("simd_table", nfacount::simd::ActiveKernels().name)
      .Set("nproc",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("affinity", affinity)
      .Set("affinity_cpus", static_cast<int64_t>(affinity_count))
      .Set("workload", args.workload)
      .Set("seed", static_cast<int64_t>(args.seed))
      .Set("seconds", static_cast<int64_t>(args.seconds))
      .Set("trace", args.trace)
      .Set("date", date)
      .Set("steal_ticks", steal_ticks_used);
  std::printf("provenance %s\n", p.Render().c_str());
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

Nfa E3Nfa(int m, uint64_t automaton_seed) {
  nfacount::Rng rng(automaton_seed);
  return nfacount::RandomNfa(m, 0.3, 0.25, rng);
}

int WriterSeed(int cycle) { return cycle % 16; }

Nfa WriterNfa(int seed) { return E3Nfa(32, static_cast<uint64_t>(seed)); }

nfacount::CountOptions SessionOptions(uint64_t seed, int threads) {
  nfacount::CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.calibration = nfacount::Calibration::Practical();
  options.seed = seed;
  options.num_threads = threads;
  return options;
}

ReadMix::ReadMix(uint64_t seed, uint64_t stream, int horizon)
    : rng_(nfacount::Rng::ForSubstream(seed, 0x6d6978 /* "mix" */, stream)),
      horizon_(horizon) {}

ReadOp ReadMix::Next() {
  if (slot_ == 0) sample_slot_ = static_cast<int>(rng_.UniformInt(0, 3));
  ReadOp op;
  op.sample = slot_ == sample_slot_;
  op.length = op.sample ? horizon_
                        : static_cast<int>(rng_.UniformInt(1, horizon_));
  slot_ = (slot_ + 1) % 4;
  return op;
}

}  // namespace perfbench
