// perfbench — the repository's end-to-end benchmark. One run executes one
// workload (build-e3, serve-warm, serve-pipelined, serve-mixed) for a seed,
// checks every answer, and prints as its last stdout line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md; run it through run.py, which builds it.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "phases.hpp"
#include "workloads.hpp"

namespace {

using perfbench::MetricSet;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload (BENCHMARK.json).
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},        {"build_s", "s"},
      {"build_mt_s", "s"},     {"draws_per_s", "1/s"},
      {"ops_per_s", "1/s"},    {"p50_us", "us"},
      {"p99_us", "us"},        {"write_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

/// Every per-layer metric. A workload that does not exercise one reports
/// kNotMeasured (-1) for it.
std::vector<MetricSpec> LayerMetrics() {
  std::vector<MetricSpec> specs = {
      {"fpras.create_s", "s"},
  };
  static const char* const kLevels[] = {
      "fpras.level_s.1", "fpras.level_s.2", "fpras.level_s.3",
      "fpras.level_s.4", "fpras.level_s.5", "fpras.level_s.6",
      "fpras.level_s.7", "fpras.level_s.8", "fpras.level_s.9",
      "fpras.level_s.10"};
  for (const char* level : kLevels) specs.push_back({level, "s"});
  const MetricSpec rest[] = {
      {"counting.appunion_calls", "count"},
      {"counting.appunion_trials", "count"},
      {"counting.membership_checks", "count"},
      {"counting.appunion_ns_per_trial", "ns"},
      {"fpras.walk_attempts", "count"},
      {"fpras.walk_accept_ratio", "1"},
      {"fpras.walk_batches", "count"},
      {"fpras.descent_hit_ratio", "1"},
      {"fpras.memo_hit_ratio", "1"},
      {"fpras.draw_chunk_us.p50", "us"},
      {"fpras.draw_chunk_us.p90", "us"},
      {"fpras.table_bytes", "bytes"},
      {"fpras.arena_bytes", "bytes"},
      {"fpras.descent_bytes", "bytes"},
      {"automata.predset_ns", "ns"},
      {"util.pool_efficiency", "1"},
      {"serve.count_us.p50", "us"},
      {"serve.count_us.p99", "us"},
      {"serve.sample_us.p50", "us"},
      {"serve.sample_us.p99", "us"},
      {"serve.registry_count_us.p50", "us"},
      {"serve.registry_sample_us.p50", "us"},
      {"serve.codec_ns", "ns"},
      {"serve.transport_us.p50", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.service_us.p99", "us"},
      {"serve.bytes_per_op", "bytes"},
      {"serve.stall_ratio", "1"},
      {"serve.writer_cycles", "count"},
      {"serve.writer_register_ms", "ms"},
      {"serve.writer_extend_ms", "ms"},
      {"serve.writer_evict_ms", "ms"},
      {"serve.writer_revive_ms", "ms"},
      {"serve.writer_unregister_ms", "ms"},
      {"fpras.checkpoint_save_ms", "ms"},
      {"fpras.checkpoint_load_ms", "ms"},
      {"fpras.checkpoint_bytes", "bytes"},
      {"serve.revives", "count"},
      {"serve.demotions", "count"},
      {"trace.self_s.bench", "s"},
      {"trace.self_s.automata", "s"},
      {"trace.self_s.counting", "s"},
      {"trace.self_s.fpras", "s"},
      {"trace.self_s.serve", "s"},
      {"trace.self_s.util", "s"},
      {"trace.spans", "count"},
      {"trace.overhead.build_s", "1"},
      {"trace.overhead.draws_per_s", "1"},
      {"trace.overhead.ops_per_s", "1"},
      {"trace.overhead.write_p50_ms", "1"},
  };
  specs.insert(specs.end(), std::begin(rest), std::end(rest));
  return specs;
}

/// `source` restricted to `specs`, in catalog order. A missing or
/// non-finite entry reads kNotMeasured and, when `required`, counts as a
/// gate failure.
MetricSet Complete(const MetricSet& source, const std::vector<MetricSpec>& specs,
                   bool required, perfbench::Tally* tally) {
  MetricSet out;
  for (const MetricSpec& spec : specs) {
    double value = source.Get(spec.name);
    const bool measured = std::isfinite(value) && value != perfbench::kNotMeasured;
    if (required) {
      tally->Check(measured && value > 0.0,
                   std::string("end-to-end metric ") + spec.name +
                       " not measured");
    }
    if (!std::isfinite(value)) value = perfbench::kNotMeasured;
    out.Set(spec.name, value, spec.unit);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  const int64_t steal_start = perfbench::StealTicks();
  std::filesystem::create_directories(args.workdir);
  perfbench::Gate gate;

  perfbench::RunContext untraced(args, &gate, nullptr,
                                 args.workdir + "/untraced");
  std::filesystem::create_directories(untraced.workdir);
  if (!perfbench::RunWorkload(args.workload, &untraced)) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (build-e3, serve-warm, "
                 "serve-pipelined, serve-mixed)\n",
                 args.workload.c_str());
    return 2;
  }
  std::unique_ptr<perfbench::Tracer> tracer;
  std::unique_ptr<perfbench::RunContext> traced;
  if (args.trace) {
    tracer = std::make_unique<perfbench::Tracer>();
    traced = std::make_unique<perfbench::RunContext>(
        args, &gate, tracer.get(), args.workdir + "/traced");
    std::filesystem::create_directories(traced->workdir);
    perfbench::RunWorkload(args.workload, traced.get());
  }
  const int64_t steal_end = perfbench::StealTicks();
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);

  perfbench::Tally& report = gate.Phase("report");
  const MetricSet e2e =
      Complete(untraced.e2e, EndToEndMetrics(), true, &report);
  MetricSet result = e2e;
  if (args.trace) {
    MetricSet layers = traced->layers;
    const std::vector<double> self = tracer->SelfSeconds();
    for (int l = 0; l < perfbench::kNumLayers; ++l) {
      layers.Set(std::string("trace.self_s.") +
                     perfbench::LayerName(static_cast<perfbench::Layer>(l)),
                 self[static_cast<size_t>(l)], "s");
    }
    layers.Set("trace.spans", static_cast<double>(tracer->SpanCount()),
               "count");
    for (const char* name :
         {"build_s", "draws_per_s", "ops_per_s", "write_p50_ms"}) {
      const double base = untraced.e2e.Get(name);
      const double with = traced->e2e.Get(name);
      layers.Set(std::string("trace.overhead.") + name,
                 base > 0.0 && with > 0.0 ? with / base - 1.0
                                          : perfbench::kNotMeasured,
                 "1");
    }
    result = Complete(layers, LayerMetrics(), false, &report);
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir, ec);
      const std::string path = args.trace_dir + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".spans.csv";
      if (tracer->Dump(path)) std::printf("spans written to %s\n", path.c_str());
    }
  }

  perfbench::PrintProvenance(
      args, steal_start >= 0 && steal_end >= 0 ? steal_end - steal_start : -1);
  gate.Print();
  const double error_rate =
      gate.attempted() > 0
          ? static_cast<double>(gate.failed()) / gate.attempted()
          : 0.0;
  std::printf("error_rate %.6g (failed %lld of %lld checks)\n", error_rate,
              static_cast<long long>(gate.failed()),
              static_cast<long long>(gate.attempted()));
  std::printf("rel_err %.4f (|estimate/exact - 1| at the horizon; "
              "informational, not gated)\n",
              untraced.rel_err);
  e2e.Print("e2e");
  if (args.trace) result.Print("layer");

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              gate.failed() == 0 ? "true" : "false",
              static_cast<long long>(gate.attempted()),
              static_cast<long long>(gate.failed()),
              result.RenderJson().c_str());
  std::fflush(stdout);
  return gate.failed() == 0 ? 0 : 1;
}
