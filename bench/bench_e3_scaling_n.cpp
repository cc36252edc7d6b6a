// E3 — Time scaling in the word length n.
//
// Claim reproduced: total time ~O((m²n¹⁰ + m³n⁶)·ε⁻⁴) for this paper vs
// ~O(m¹⁷n¹⁷·ε⁻¹⁴) for ACJR — the n-exponent gap dominates feasible sizes.
// We sweep n at fixed m for both schedules (ACJR with the extra feasibility
// haircut recorded in EXPERIMENTS.md), fit log-log slopes, and run the exact
// determinization baseline for context (fast here, but exponential in the
// worst case — see E2/E4 families).
//
// The E3 family RandomNfa(m, 0.3, 0.25) accepts every word of length >= 2
// once m >= 24, so E3c adds SparseRandomNfa(m, 2, 1.8) rows at m = 64 and 96:
// proper sub-languages of Σⁿ, where the unions AppUnion estimates do not all
// coincide.

#include <cmath>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

Nfa TestAutomaton(int m) {
  Rng rng(2024);
  return RandomNfa(m, 0.3, 0.25, rng);
}

Nfa SparseAutomaton(int m) {
  Rng rng(2024);
  return SparseRandomNfa(m, /*k=*/2, /*d=*/1.8, rng);
}

void SweepSchedule(const char* label, bool acjr, const std::vector<int>& ns,
                   const Nfa& nfa) {
  std::vector<double> xs, ys;
  Row({"n", "seconds", "ns(budget)", "estimate", "truth", "au_trials"});
  for (int n : ns) {
    CountOptions options =
        acjr ? AcjrFeasibleOptions(5 + n) : DefaultOptions(5 + n);
    TimedRun run = RunFpras(nfa, n, options);
    double truth = ExactOrNeg(nfa, n);
    Row({FmtInt(n), Fmt(run.seconds, "%.4f"), FmtInt(run.params.ns),
         Fmt(run.estimate), Fmt(truth), FmtInt(run.diag.appunion_trials)});
    xs.push_back(n);
    ys.push_back(std::max(run.seconds, 1e-6));
  }
  std::printf("%s fitted log-log slope (time ~ n^k): k = %.2f\n", label,
              LogLogSlope(xs, ys));
}

}  // namespace

int main() {
  std::printf("E3 — runtime scaling in n (m fixed)\n");

  Section("E3a: faster schedule (this paper), m=6, n sweep");
  SweepSchedule("faster", /*acjr=*/false, {6, 8, 10, 12, 14, 16},
                TestAutomaton(6));

  // The sweep starts where the haircut κ⁷ budget clears the calibration
  // floor, so the measured slope reflects the schedule, not the floor.
  Section("E3b: ACJR-style schedule (feasibility haircut 1e-13), m=5");
  SweepSchedule("acjr", /*acjr=*/true, {9, 10, 11, 12}, TestAutomaton(5));

  for (int m : {64, 96}) {
    Section("E3c: faster schedule on the sparse family (|Σ|=2, d=1.8), m=" +
            std::to_string(m));
    SweepSchedule("sparse", /*acjr=*/false, {6, 8, 10}, SparseAutomaton(m));
  }

  std::printf(
      "\nShape check: the ACJR slope exceeds the faster slope — the n^7-vs-n^4\n"
      "sample budget shows up directly in runtime, matching the paper's gap.\n");
  return 0;
}
