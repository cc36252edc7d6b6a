// Shared helpers for the experiment binaries (E1-E12): aligned table
// printing, timed FPRAS invocation, the default calibrations used across
// experiments (recorded in EXPERIMENTS.md), and a minimal JSON report writer
// so benches can record machine-readable trajectories (BENCH_*.json) next to
// their human-readable tables.

#ifndef NFACOUNT_BENCH_BENCH_COMMON_HPP_
#define NFACOUNT_BENCH_BENCH_COMMON_HPP_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_git_sha.h"  // generated at build time: NFACOUNT_GIT_SHA
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

// Set per target by bench/CMakeLists.txt.
#ifndef NFACOUNT_BUILD_TYPE
#define NFACOUNT_BUILD_TYPE "unknown"
#endif

namespace nfacount {
namespace bench {

/// Prints a separator + title for one experiment section.
inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Fixed-width row printing: columns are given as already-formatted cells.
inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, const char* spec = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

inline std::string FmtInt(int64_t v) { return std::to_string(v); }

/// One timed FPRAS run.
struct TimedRun {
  double seconds = 0.0;
  double estimate = 0.0;
  FprasDiagnostics diag;
  FprasParams params;
};

inline TimedRun RunFpras(const Nfa& nfa, int n, const CountOptions& options) {
  WallTimer timer;
  Result<CountEstimate> r = ApproxCount(nfa, n, options);
  TimedRun out;
  out.seconds = timer.ElapsedSeconds();
  if (r.ok()) {
    out.estimate = r->estimate;
    out.diag = r->diagnostics;
    out.params = r->params;
  } else {
    std::fprintf(stderr, "FPRAS failed: %s\n", r.status().ToString().c_str());
  }
  return out;
}

/// Exact count as double (−1 when infeasible within budgets).
inline double ExactOrNeg(const Nfa& nfa, int n) {
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  if (!exact.ok()) return -1.0;
  return exact->ToDouble();
}

// ---------------------------------------------------------------------------
// JSON trajectory output (--json <path>)
// ---------------------------------------------------------------------------

// The object renderer lives in util/json.hpp so non-bench tools (nfa_cli
// --json) share it; the alias keeps every bench's bench::JsonObject usage.
using nfacount::JsonObject;

/// Where a report's numbers come from: the commit (as of the build; a
/// "-dirty" suffix marks uncommitted changes), build type, compiler, the
/// bit-operation path (util/simd.hpp), the core count, and the UTC time of
/// rendering.
inline JsonObject Provenance() {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  JsonObject p;
  p.Set("git_sha", NFACOUNT_GIT_SHA)
      .Set("build_type", NFACOUNT_BUILD_TYPE)
      .Set("compiler", __VERSION__)
      .Set("simd_table", simd::ActiveKernels().name)
      .Set("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("date", date);
  return p;
}

/// One bench's machine-readable record: {"bench": ..., "provenance": {...},
/// "config": {...}, "metrics": {...}, "tables": {"<name>": [row, ...],
/// ...}}. The provenance block is filled in by Render itself. Populate
/// config() once, append one row per printed table line, and call
/// WriteTo(JsonPathArg(...)) at the end — a no-op when --json was not given,
/// so every bench can wire it unconditionally.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name) : name_(std::move(bench_name)) {}

  JsonObject& config() { return config_; }
  JsonObject& metrics() { return metrics_; }

  void AddRow(const std::string& table, JsonObject row) {
    for (auto& t : tables_) {
      if (t.first == table) {
        t.second.push_back(std::move(row));
        return;
      }
    }
    tables_.emplace_back(table, std::vector<JsonObject>{std::move(row)});
  }

  std::string Render() const {
    JsonObject root;
    root.Set("bench", name_);
    root.SetRaw("provenance", Provenance().Render());
    if (!config_.empty()) root.SetRaw("config", config_.Render());
    if (!metrics_.empty()) root.SetRaw("metrics", metrics_.Render());
    if (!tables_.empty()) {
      JsonObject tables;
      for (const auto& t : tables_) {
        std::string arr = "[";
        for (size_t i = 0; i < t.second.size(); ++i) {
          if (i > 0) arr += ",";
          arr += t.second[i].Render();
        }
        arr += "]";
        tables.SetRaw(t.first, std::move(arr));
      }
      root.SetRaw("tables", tables.Render());
    }
    return root.Render();
  }

  /// Writes the report (one JSON object + newline). Empty path = no-op;
  /// returns false (with a stderr note) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   path.c_str());
      return false;
    }
    const std::string body = Render() + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("\n[json written to %s]\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  JsonObject config_;
  JsonObject metrics_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> tables_;
};

/// Extracts the value of `--json <path>` from a bench's argv ("" if absent).
/// A trailing `--json` with no path is a usage error (exit 2) rather than a
/// silent no-op — a CI step recording trajectories must not pass green while
/// producing nothing.
inline std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench: --json requires a path argument\n");
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return "";
}

/// The calibration used by default in all experiments (see EXPERIMENTS.md).
inline CountOptions DefaultOptions(uint64_t seed, double eps = 0.3,
                                   double delta = 0.2) {
  CountOptions o;
  o.eps = eps;
  o.delta = delta;
  o.calibration = Calibration::Practical();
  o.seed = seed;
  return o;
}

/// Extra haircut applied to the ACJR κ⁷ budget so runs terminate; the E2
/// schedule table reports the true (uncut) gap. Recorded in EXPERIMENTS.md.
/// Sweeps must pick sizes where the scaled budget clears the ns floor,
/// otherwise they measure the floor rather than the κ⁷ shape.
inline CountOptions AcjrFeasibleOptions(uint64_t seed, double eps = 0.3,
                                        double delta = 0.2,
                                        double haircut = 1.0e-13) {
  CountOptions o = DefaultOptions(seed, eps, delta);
  o.schedule = Schedule::kAcjr;
  o.calibration.ns_scale = haircut;
  return o;
}

}  // namespace bench
}  // namespace nfacount

#endif  // NFACOUNT_BENCH_BENCH_COMMON_HPP_
