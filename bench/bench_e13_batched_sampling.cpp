// E13 — Batched sampling plane: post-run draw throughput across lockstep
// batch widths.
//
// Claim measured: advancing B candidate walks in lockstep on the
// FrontierPlane amortizes the per-call union estimate and group-shares the
// per-level union-size lookups and predecessor expansions, so post-run
// draws/sec grows with B — while the draw sequence stays bit-identical for
// every B (asserted here, not assumed). B is engine-internal (sessions run
// the default, 16), so each cell builds an FprasEngine at FprasParams::
// batch_width = B and draws the way EngineSession::SampleWords does: one
// SampleAcceptedInto call per chunk of kDrawChunk words, with the session's
// per-draw attempt budget. Family and sizes follow E3 (RandomNfa density
// 0.3, accept 0.25) at m = 64..128.
// `build_seconds` is the median of kBuildRepeats table builds per (m, B)
// cell: one build on a shared host moves ±50% between back-to-back runs.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"
#include "fpras/fpras.hpp"
#include "util/timer.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

constexpr int kN = 12;                     // word length (E3 regime)
constexpr int kBatchWidths[] = {1, 4, 16, 64};
constexpr int kIdentityDraws = 200;        // draws compared bit-for-bit
constexpr int64_t kDrawChunk = 256;        // words per timed draw call
constexpr int kBuildRepeats = 3;           // builds per cell (median kept)
constexpr int64_t kMinDraws = 1000;
constexpr double kMinSeconds = 0.25;

Nfa E3Automaton(int m) {
  Rng rng(2024);  // the E3 generator seed
  return RandomNfa(m, 0.3, 0.25, rng);
}

struct SweepPoint {
  int batch_width = 0;
  double build_seconds = 0.0;
  double draws_per_sec = 0.0;
  int64_t draws = 0;
  double estimate = 0.0;
  std::vector<Word> prefix;  // first kIdentityDraws draws
  FprasDiagnostics diag;
};

/// `count` words from L(A_kN), as one session draw call takes them; exits
/// if the attempt budget runs out.
std::vector<Word> Draw(FprasEngine& engine, int64_t count) {
  std::vector<Word> words;
  words.reserve(static_cast<size_t>(count));
  if (engine.SampleAcceptedInto(kN, EngineSession::kAttemptsPerDraw * count,
                                count, &words) < count) {
    std::fprintf(stderr, "draw failed: attempts exhausted\n");
    std::exit(1);
  }
  return words;
}

SweepPoint MeasureOne(const Nfa& nfa, int batch_width) {
  SweepPoint point;
  point.batch_width = batch_width;
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = 17;
  FprasParams params =
      ParamsFromOptions(options, nfa.num_states(), kN).value();
  params.batch_width = batch_width;

  // Every build of a cell is the same deterministic table; the last one
  // serves the draws.
  std::vector<double> build_seconds;
  std::unique_ptr<FprasEngine> engine;
  for (int r = 0; r < kBuildRepeats; ++r) {
    WallTimer build_timer;
    engine = std::make_unique<FprasEngine>(&nfa, params, options.seed);
    const Status built = engine->Run();
    build_seconds.push_back(build_timer.ElapsedSeconds());
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
      std::exit(1);
    }
    const double estimate = engine->EstimateAtLength(kN);
    if (r > 0 && estimate != point.estimate) {
      std::fprintf(stderr, "FATAL: rebuild changed the estimate at B=%d\n",
                   batch_width);
      std::exit(1);
    }
    point.estimate = estimate;
  }
  std::sort(build_seconds.begin(), build_seconds.end());
  point.build_seconds = build_seconds[build_seconds.size() / 2];

  point.prefix = Draw(*engine, kIdentityDraws);

  WallTimer timer;
  int64_t draws = 0;
  while (draws < kMinDraws || timer.ElapsedSeconds() < kMinSeconds) {
    Draw(*engine, kDrawChunk);
    draws += kDrawChunk;
  }
  const double seconds = timer.ElapsedSeconds();
  point.draws = draws;
  point.draws_per_sec = static_cast<double>(draws) / seconds;
  point.diag = engine->diagnostics();
  return point;
}

double SweepFamily(int m, BenchReport* report) {
  Section("E13: e3 family m=" + std::to_string(m) + ", n=" +
          std::to_string(kN) + ", batch sweep");
  Nfa nfa = E3Automaton(m);
  Row({"B", "build_s", "draws", "draws/s", "speedup", "memo_hit%",
       "arena_KB", "arena_allocs"});

  std::vector<SweepPoint> points;
  for (int b : kBatchWidths) points.push_back(MeasureOne(nfa, b));
  const SweepPoint& base = points[0];

  double best_speedup = 0.0;
  for (const SweepPoint& p : points) {
    // Bit-identity across batch widths: same estimate, same draw sequence.
    if (p.estimate != base.estimate || p.prefix != base.prefix) {
      std::fprintf(stderr,
                   "FATAL: batch width %d changed the draw sequence at m=%d\n",
                   p.batch_width, m);
      std::exit(1);
    }
    const double speedup = p.draws_per_sec / base.draws_per_sec;
    best_speedup = std::max(best_speedup, speedup);
    const double memo_total =
        static_cast<double>(p.diag.memo_hits + p.diag.memo_misses);
    Row({FmtInt(p.batch_width), Fmt(p.build_seconds, "%.2f"),
         FmtInt(p.draws), Fmt(p.draws_per_sec, "%.0f"),
         Fmt(speedup, "%.2fx"),
         Fmt(memo_total > 0 ? 100.0 * p.diag.memo_hits / memo_total : 0.0,
             "%.1f"),
         Fmt(p.diag.arena_bytes_reserved / 1024.0, "%.1f"),
         FmtInt(p.diag.arena_alloc_events)});
    JsonObject row;
    row.Set("m", m)
        .Set("n", kN)
        .Set("batch_width", p.batch_width)
        .Set("build_seconds", p.build_seconds)
        .Set("draws", p.draws)
        .Set("draws_per_sec", p.draws_per_sec)
        .Set("speedup_vs_b1", speedup)
        .Set("estimate", p.estimate)
        .Set("bit_identical_to_b1", true)
        .Set("memo_hits", p.diag.memo_hits)
        .Set("memo_misses", p.diag.memo_misses)
        .Set("arena_bytes_reserved", p.diag.arena_bytes_reserved)
        .Set("arena_alloc_events", p.diag.arena_alloc_events)
        .Set("sample_calls", p.diag.sample_calls);
    report->AddRow("batch_sweep", std::move(row));
  }
  std::printf("best speedup at m=%d: %.2fx (draw sequences bit-identical "
              "across all B)\n", m, best_speedup);
  return best_speedup;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E13 — batched sampling plane: engine draws/sec vs lockstep "
              "width B\n");
  BenchReport report("e13_batched_sampling");
  report.config()
      .Set("family", "RandomNfa(density=0.3, accept=0.25), E3 generator")
      .Set("n", kN)
      .Set("eps", 0.3)
      .Set("delta", 0.2)
      .Set("seed", static_cast<int64_t>(17))
      .Set("draw_chunk", kDrawChunk)
      .Set("build_repeats", static_cast<int64_t>(kBuildRepeats))
      .Set("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));

  double best = 0.0;
  for (int m : {64, 96, 128}) {
    best = std::max(best, SweepFamily(m, &report));
  }
  report.metrics().Set("best_speedup_overall", best);

  std::printf("\nOverall best draws/sec speedup vs B=1: %.2fx\n", best);
  report.WriteTo(JsonPathArg(argc, argv));
  return 0;
}
