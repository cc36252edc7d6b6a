// E13 — Batched sampling plane: post-run draw throughput across lockstep
// batch widths, plus the bitset-kernel microbench.
//
// Claim measured: advancing B candidate walks in lockstep on the
// FrontierPlane amortizes the per-call union estimate and group-shares the
// per-level union-size lookups and predecessor expansions, so end-to-end
// EngineSession draws/sec grows with B — while the draw sequence stays
// bit-identical for every B (asserted here, not assumed). Draws are timed
// as SampleWords chunks of kDrawChunk words, one call per chunk. Family and
// sizes follow E3 (RandomNfa density 0.3, accept 0.25) at m = 64..128.
// `build_seconds` is the median of kBuildRepeats table builds per (m, B)
// cell: one build on a shared host moves ±50% between back-to-back runs.
//
// The kernel section times the dispatched SIMD table against the scalar
// reference on the three frontier-row widths the engine actually touches.

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"
#include "fpras/fpras.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

constexpr int kN = 12;                     // word length (E3 regime)
constexpr int kBatchWidths[] = {1, 4, 16, 64};
constexpr int kIdentityDraws = 200;        // draws compared bit-for-bit
constexpr int64_t kDrawChunk = 256;        // words per timed SampleWords
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

SweepPoint MeasureOne(const Nfa& nfa, int batch_width) {
  SweepPoint point;
  point.batch_width = batch_width;
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = 17;
  options.batch_width = batch_width;

  // Every build of a cell is the same deterministic table; the last one
  // serves the draws.
  std::vector<double> build_seconds;
  Result<EngineSession> session = Status::Invalid("not built");
  for (int r = 0; r < kBuildRepeats; ++r) {
    WallTimer build_timer;
    session = EngineSession::Create(nfa, kN, options);
    const Status built =
        session.ok() ? session->ExtendTo(kN) : session.status();
    build_seconds.push_back(build_timer.ElapsedSeconds());
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
      std::exit(1);
    }
    const double estimate = session->CountAtLength(kN).value();
    if (r > 0 && estimate != point.estimate) {
      std::fprintf(stderr, "FATAL: rebuild changed the estimate at B=%d\n",
                   batch_width);
      std::exit(1);
    }
    point.estimate = estimate;
  }
  std::sort(build_seconds.begin(), build_seconds.end());
  point.build_seconds = build_seconds[build_seconds.size() / 2];

  Result<std::vector<Word>> prefix = session->SampleWords(kN, kIdentityDraws);
  if (!prefix.ok()) {
    std::fprintf(stderr, "draw failed: %s\n",
                 prefix.status().ToString().c_str());
    std::exit(1);
  }
  point.prefix = std::move(*prefix);

  WallTimer timer;
  int64_t draws = 0;
  while (draws < kMinDraws || timer.ElapsedSeconds() < kMinSeconds) {
    if (!session->SampleWords(kN, kDrawChunk).ok()) std::exit(1);
    draws += kDrawChunk;
  }
  const double seconds = timer.ElapsedSeconds();
  point.draws = draws;
  point.draws_per_sec = static_cast<double>(draws) / seconds;
  point.diag = session->diagnostics();
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

void KernelMicrobench(BenchReport* report) {
  Section("E13k: bitset kernel microbench (ns/op, dispatched vs scalar)");
  const simd::BitsetKernels& active = simd::ActiveKernels();
  const simd::BitsetKernels& scalar = simd::ScalarKernels();
  std::printf("active kernel table: %s\n", active.name);
  Row({"words", "kernel", "or_masked", "intersects", "popcount"});

  Rng rng(99);
  for (size_t words : {size_t{2}, size_t{16}, size_t{64}}) {
    std::vector<uint64_t> dst(words), src(words), mask(words);
    for (size_t i = 0; i < words; ++i) {
      dst[i] = rng.NextU64();
      src[i] = rng.NextU64();
      mask[i] = rng.NextU64();
    }
    for (const simd::BitsetKernels* k : {&active, &scalar}) {
      const int64_t iters = 2000000 / static_cast<int64_t>(words);
      WallTimer t1;
      for (int64_t i = 0; i < iters; ++i) {
        k->or_masked_into(dst.data(), src.data(), mask.data(), words);
      }
      const double or_masked_ns = t1.ElapsedSeconds() * 1e9 / iters;
      volatile bool sink = false;
      WallTimer t2;
      for (int64_t i = 0; i < iters; ++i) {
        sink = k->intersects(dst.data(), src.data(), words);
      }
      const double intersects_ns = t2.ElapsedSeconds() * 1e9 / iters;
      volatile size_t psink = 0;
      WallTimer t3;
      for (int64_t i = 0; i < iters; ++i) {
        psink = k->popcount(dst.data(), words);
      }
      const double popcount_ns = t3.ElapsedSeconds() * 1e9 / iters;
      (void)sink;
      (void)psink;
      Row({FmtInt(static_cast<int64_t>(words)), k->name,
           Fmt(or_masked_ns, "%.2f"), Fmt(intersects_ns, "%.2f"),
           Fmt(popcount_ns, "%.2f")});
      JsonObject row;
      row.Set("words", static_cast<int64_t>(words))
          .Set("kernel", k->name)
          .Set("or_masked_ns", or_masked_ns)
          .Set("intersects_ns", intersects_ns)
          .Set("popcount_ns", popcount_ns);
      report->AddRow("kernel_microbench", std::move(row));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E13 — batched sampling plane: session draws/sec vs lockstep "
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
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("active_kernels", simd::ActiveKernels().name);

  double best = 0.0;
  for (int m : {64, 96, 128}) {
    best = std::max(best, SweepFamily(m, &report));
  }
  KernelMicrobench(&report);
  report.metrics().Set("best_speedup_overall", best);

  std::printf("\nOverall best draws/sec speedup vs B=1: %.2fx\n", best);
  report.WriteTo(JsonPathArg(argc, argv));
  return 0;
}
