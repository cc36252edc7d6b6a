// E12 — parallel level-sweep scaling: end-to-end FPRAS Run() wall time vs
// worker-thread count on the E3/E4 scaling families. Because every (q,ℓ)
// cell draws from its own counter-based RNG substream, all thread counts
// produce bit-identical estimates — the bench asserts that equality on every
// cell, so a scheduling regression that leaks into results shows up here as
// well as in tests/test_parallel.cpp.
//
//   E12a: E3 family (RandomNfa(m, 0.3, 0.25), n = 8), m = 64..128, threads
//         swept over {1, 2, 4, 8}; speedup is T(1)/T(k) per m.
//   E12b: one E4-style deeper instance (m = 64, n = 16) for the long-level
//         shape (fewer, fatter levels stress the per-level barrier less).
//   E12c: post-run draws/s of SampleWords vs the session's thread count
//         {1, 2, 4} on a built session: E3 at m = 96, n = 10 and
//         SparseRandomNfa(64, 2, 1.8) at n = 12. Each cell is the median of
//         kDrawRuns timed SampleWords(n, kDrawWords) calls after one
//         warm-up call; bit_identical_to_t1 compares every drawn word with
//         the 1-thread session's.
//
// Methodology (bench/README.md): Release build, fixed seed. Each E12a/b
// (m, threads) cell is one warm-up run, then the median wall time of
// kTimedRuns timed runs whose estimates must all be equal: one timed run on
// a shared 4-vCPU host read 0.043 s and 0.117 s for the same cell in two
// rounds. Speedup is hardware-bound: on a single-core container every
// thread count measures ~1.0x — record the host's nproc (reported in the
// JSON config) when reading the numbers.
//
// --json <path> writes the full trajectory (config + per-cell rows) as one
// JSON object, e.g. `bench_e12_parallel_scaling --json BENCH_e12.json`.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

/// The E3 family instance (same generator as bench_e3/bench_e11).
Nfa E3Automaton(int m) {
  Rng rng(2024);
  return RandomNfa(m, 0.3, 0.25, rng);
}

constexpr uint64_t kSeed = 31;
constexpr int64_t kDrawWords = 20000;
constexpr int kDrawRuns = 5;
constexpr int kTimedRuns = 5;

struct Cell {
  double seconds = 0.0;     ///< median over kTimedRuns
  double estimate = 0.0;
  bool repeatable = true;   ///< every timed run returned `estimate`
};

Cell RunWithThreads(const Nfa& nfa, int n, int threads) {
  CountOptions o = DefaultOptions(kSeed);
  o.num_threads = threads;
  Cell cell;
  // Warm-up pass (page-in, allocator steady state), then the timed runs.
  (void)RunFpras(nfa, n, o);
  std::vector<double> seconds;
  for (int run = 0; run < kTimedRuns; ++run) {
    const TimedRun timed = RunFpras(nfa, n, o);
    seconds.push_back(timed.seconds);
    if (run == 0) cell.estimate = timed.estimate;
    cell.repeatable &= timed.estimate == cell.estimate;
  }
  std::sort(seconds.begin(), seconds.end());
  cell.seconds = seconds[seconds.size() / 2];
  return cell;
}

void SweepInstance(const char* family, int m, int n,
                   const std::vector<int>& thread_counts, BenchReport* report) {
  Nfa nfa = E3Automaton(m);
  std::vector<Cell> cells;
  cells.reserve(thread_counts.size());
  for (int threads : thread_counts) {
    cells.push_back(RunWithThreads(nfa, n, threads));
  }
  const double base_s = cells[0].seconds;
  bool identical = true;
  for (const Cell& c : cells) {
    identical &= c.repeatable && c.estimate == cells[0].estimate;
  }

  for (size_t i = 0; i < cells.size(); ++i) {
    Row({family, FmtInt(m), FmtInt(n), FmtInt(thread_counts[i]),
         Fmt(cells[i].seconds, "%.3f"), Fmt(base_s / cells[i].seconds, "%.2fx"),
         Fmt(cells[i].estimate), identical ? "yes" : "NO"});
    JsonObject row;
    row.Set("family", family)
        .Set("m", m)
        .Set("n", n)
        .Set("threads", thread_counts[i])
        .Set("wall_s", cells[i].seconds)
        .Set("speedup_vs_1", base_s / cells[i].seconds)
        .Set("estimate", cells[i].estimate)
        .Set("bit_identical", identical);
    report->AddRow("scaling", std::move(row));
  }
  if (!identical) {
    std::fprintf(stderr,
                 "E12: ESTIMATE DIFFERS ACROSS THREADS OR RERUNS on %s "
                 "m=%d n=%d\n",
                 family, m, n);
  }
}

/// One E12c cell: the words a session at `threads` draws in kDrawRuns timed
/// calls, and the median draws/s over those calls.
struct DrawCell {
  double draws_per_s = 0.0;
  std::vector<Word> words;
};

DrawCell DrawWithThreads(const Nfa& nfa, int n, int threads) {
  CountOptions o = DefaultOptions(kSeed);
  o.num_threads = threads;
  DrawCell cell;
  Result<EngineSession> session = EngineSession::Create(nfa, n, o);
  if (!session.ok() || !session->ExtendTo(n).ok() ||
      !session->SampleWords(n, kDrawWords).ok()) {
    std::fprintf(stderr, "E12c: session set-up failed\n");
    return cell;
  }
  std::vector<double> rates;
  for (int run = 0; run < kDrawRuns; ++run) {
    WallTimer timer;
    Result<std::vector<Word>> drawn = session->SampleWords(n, kDrawWords);
    const double seconds = timer.ElapsedSeconds();
    if (!drawn.ok()) {
      std::fprintf(stderr, "E12c: SampleWords failed: %s\n",
                   drawn.status().ToString().c_str());
      return cell;
    }
    rates.push_back(static_cast<double>(kDrawWords) / seconds);
    cell.words.insert(cell.words.end(), drawn->begin(), drawn->end());
  }
  std::sort(rates.begin(), rates.end());
  cell.draws_per_s = rates[rates.size() / 2];
  return cell;
}

void SweepDraws(const char* family, const Nfa& nfa, int n,
                BenchReport* report) {
  const int m = nfa.num_states();
  std::vector<DrawCell> cells;
  for (int threads : {1, 2, 4}) {
    cells.push_back(DrawWithThreads(nfa, n, threads));
    const DrawCell& cell = cells.back();
    const bool identical =
        !cell.words.empty() && cell.words == cells.front().words;
    const double speedup = cells.front().draws_per_s > 0.0
                               ? cell.draws_per_s / cells.front().draws_per_s
                               : 0.0;
    Row({family, FmtInt(m), FmtInt(n), FmtInt(threads),
         Fmt(cell.draws_per_s, "%.0f"), Fmt(speedup, "%.2fx"),
         identical ? "yes" : "NO"});
    JsonObject row;
    row.Set("family", family)
        .Set("m", m)
        .Set("n", n)
        .Set("threads", threads)
        .Set("draws_per_s", cell.draws_per_s)
        .Set("speedup_vs_1", speedup)
        .Set("bit_identical_to_t1", identical);
    report->AddRow("draws", std::move(row));
    if (!identical) {
      std::fprintf(stderr,
                   "E12c: DRAW STREAM DIFFERS FROM 1 THREAD on %s m=%d n=%d "
                   "threads=%d\n",
                   family, m, n, threads);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonPathArg(argc, argv);
  BenchReport report("e12_parallel_scaling");

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E12 — parallel level-sweep scaling (hardware threads: %u)\n",
              hw);

  report.config()
      .Set("family", "E3 RandomNfa(m, 0.3, 0.25)")
      .Set("eps", 0.3)
      .Set("delta", 0.2)
      .Set("seed", kSeed)
      .Set("hardware_threads", static_cast<int>(hw))
      .SetRaw("thread_counts", "[1,2,4,8]")
      .Set("draw_family_sparse", "SparseRandomNfa(64, 2, 1.8), Rng(2024)")
      .Set("timed_runs_per_cell", kTimedRuns)
      .Set("draw_words_per_run", kDrawWords)
      .Set("draw_runs", kDrawRuns);

  Section("E12a: Run() wall time vs threads, E3 family n=8 (median of " +
          std::to_string(kTimedRuns) + " runs)");
  Row({"family", "m", "n", "threads", "wall_s", "speedup", "estimate",
       "identical"});
  for (int m : {64, 96, 128}) {
    SweepInstance("E3", m, 8, thread_counts, &report);
  }

  Section("E12b: deeper unroll (E4 shape), m=64 n=16 (median of " +
          std::to_string(kTimedRuns) + " runs)");
  Row({"family", "m", "n", "threads", "wall_s", "speedup", "estimate",
       "identical"});
  SweepInstance("E4", 64, 16, thread_counts, &report);

  Section("E12c: SampleWords draws/s vs session threads (median of " +
          std::to_string(kDrawRuns) + " x " + std::to_string(kDrawWords) +
          " words)");
  Row({"family", "m", "n", "threads", "draws_per_s", "speedup",
       "identical"});
  SweepDraws("E3", E3Automaton(96), 10, &report);
  {
    Rng rng(2024);
    SweepDraws("sparse", SparseRandomNfa(64, /*k=*/2, /*d=*/1.8, rng), 12,
               &report);
  }

  const bool json_ok = report.WriteTo(json_path);

  std::printf(
      "\nReading: 'speedup' is T(threads=1)/T(threads=k) for the identical\n"
      "workload — the estimates column must agree bit-for-bit across every\n"
      "row of one (m, n) block and across the timed runs of every row\n"
      "('identical' = yes). Scaling saturates at the host's physical core\n"
      "count; per-level cell counts (≈ m) bound the available parallelism\n"
      "at small m. E12c's draws split each request\n"
      "into attempt-ordered windows of walk batches, so every thread count\n"
      "draws the 1-thread word stream ('identical' = yes).\n");
  return json_ok ? 0 : 1;
}
