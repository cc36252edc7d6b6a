// Failure-injection tests: corrupted size estimates, starved sample lists,
// adversarial membership oracles, forced perturbation, and degenerate
// automata — the FPRAS stack must degrade gracefully (never crash, report
// diagnostics, and stay sound where the theory says it must).

#include <gtest/gtest.h>

#include <cmath>

#include "automata/generators.hpp"
#include "counting/exact.hpp"
#include "counting/union_mc.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

/// AppUnion input whose membership oracle lies.
struct LyingInput {
  std::vector<int> samples;
  double size;
  bool always_contains;

  double size_estimate() const { return size; }
  int64_t num_samples() const { return static_cast<int64_t>(samples.size()); }
  const int& Sample(int64_t i) const { return samples[static_cast<size_t>(i)]; }
  bool Contains(const int&) const { return always_contains; }
};

TEST(FailureInjection, OracleAlwaysYesCollapsesUnionToFirstSet) {
  // If every "earlier set" claims to contain every sample, only draws from
  // input 0 count: the estimate collapses to ~sz_0. This documents the
  // sensitivity of Alg. 1 to oracle soundness.
  Rng rng(TestSeed(1));
  std::vector<LyingInput> inputs;
  for (int i = 0; i < 3; ++i) {
    LyingInput in;
    in.size = 100.0;
    in.always_contains = true;
    for (int s = 0; s < 2048; ++s) in.samples.push_back(s);
    inputs.push_back(std::move(in));
  }
  std::vector<const LyingInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = AppUnion(ptrs, p, rng);
  EXPECT_NEAR(out.estimate, 100.0, 25.0);  // only the i=0 share survives
}

TEST(FailureInjection, OracleAlwaysNoSumsSizes) {
  Rng rng(TestSeed(2));
  std::vector<LyingInput> inputs;
  for (int i = 0; i < 3; ++i) {
    LyingInput in;
    in.size = 100.0;
    in.always_contains = false;
    for (int s = 0; s < 2048; ++s) in.samples.push_back(s);
    inputs.push_back(std::move(in));
  }
  std::vector<const LyingInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = AppUnion(ptrs, p, rng);
  EXPECT_DOUBLE_EQ(out.estimate, 300.0);  // every trial is a "unique" hit
}

TEST(FailureInjection, WildlyWrongSizeEstimatesStillBounded) {
  // Sizes inflated 10x with eps_sz declared honestly: Theorem 1's
  // (1+ε)(1+ε_sz) guarantee is vacuous at ε_sz = 9, but the estimator must
  // not produce NaN/negative/unbounded output.
  Rng rng(TestSeed(3));
  std::vector<LyingInput> inputs;
  LyingInput in;
  in.size = 1000.0;  // true support is 100 samples
  in.always_contains = false;
  for (int s = 0; s < 4096; ++s) in.samples.push_back(s % 100);
  inputs.push_back(std::move(in));
  std::vector<const LyingInput*> ptrs = {&inputs[0]};
  AppUnionParams p;
  p.eps = 0.3;
  p.delta = 0.1;
  p.eps_sz = 9.0;
  AppUnionOutcome out = AppUnion(ptrs, p, rng);
  EXPECT_TRUE(std::isfinite(out.estimate));
  EXPECT_GE(out.estimate, 0.0);
  EXPECT_LE(out.estimate, 1000.0);
}

TEST(FailureInjection, ForcedPerturbationStaysFinite) {
  // Drive the perturbation branch hard by inflating eta: estimates get
  // garbled (that is the point of the branch's probability budget) but the
  // run must complete and stay finite.
  Rng rng(TestSeed(4));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  const int n = 5;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.3, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasParams forced = *params;
  forced.eta = 2.0 * n;  // perturbation probability η/2n = 1: always perturb
  FprasEngine engine(&nfa, forced, 5);
  ASSERT_TRUE(engine.Run().ok());
  const double estimate = engine.EstimateAtLength(engine.horizon());
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GE(estimate, 0.0);
  EXPECT_GT(engine.diagnostics().perturbed_counts, 0);
}

TEST(FailureInjection, PerturbationRateMatchesEta) {
  // With the real η the branch fires with probability η/2n per (q,ℓ):
  // essentially never at test sizes.
  Rng rng(TestSeed(5));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(6);
  Result<CountEstimate> r = ApproxCount(nfa, 6, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->diagnostics.perturbed_counts, 0);
}

TEST(FailureInjection, StarvedEngineBreakModeStillRuns) {
  // Faithful break-out starvation with lists much shorter than trial
  // demands: accuracy degrades (documented) but the run completes and the
  // diagnostics expose the starvation count.
  Nfa nfa = SubstringNfa(Word{1, 0});
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(7);
  options.recycle_samples = false;
  options.calibration.ns_floor = 16;     // tiny lists
  options.calibration.trial_floor = 512; // big trial demand
  options.calibration.ns_scale = 1e-12;
  Result<CountEstimate> r = ApproxCount(nfa, 8, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->diagnostics.starvations, 0);
  EXPECT_TRUE(std::isfinite(r->estimate));
}

TEST(FailureInjection, DeadStatesDoNotPoisonEstimates) {
  // Add unreachable and dead states around a working automaton.
  Nfa core = SubstringNfa(Word{1, 1});
  Nfa padded(2);
  StateId base = padded.AddStates(core.num_states());
  (void)base;
  StateId dead1 = padded.AddState();
  StateId dead2 = padded.AddState();
  padded.SetInitial(core.initial());
  core.accepting().ForEachSet([&](int q) { padded.AddAccepting(q); });
  for (StateId q = 0; q < core.num_states(); ++q) {
    for (int a = 0; a < 2; ++a) {
      for (StateId r : core.Successors(q, static_cast<Symbol>(a))) {
        padded.AddTransition(q, static_cast<Symbol>(a), r);
      }
    }
  }
  padded.AddTransition(dead1, 0, dead2);  // unreachable island
  padded.AddTransition(0, 0, dead2);      // reachable dead end (no accept)

  const int n = 8;
  Result<BigUint> exact = ExactCountViaDfa(padded, n);
  ASSERT_TRUE(exact.ok());
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(8);
  Result<CountEstimate> r = ApproxCount(padded, n, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->estimate / exact->ToDouble(), 1.0, 0.5);
}

TEST(FailureInjection, SelfLoopOnlyInitialNoAccept) {
  Nfa nfa(2);
  StateId q = nfa.AddState();
  nfa.SetInitial(q);
  nfa.AddTransition(q, 0, q);
  nfa.AddTransition(q, 1, q);
  // No accepting states at all.
  Result<CountEstimate> r = ApproxCount(nfa, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->estimate, 0.0);
}

TEST(FailureInjection, StateWithNoOutgoingEdges) {
  // The accepting sink has no outgoing edges: levels past its depth lose it.
  Nfa nfa(2);
  nfa.AddStates(3);
  nfa.SetInitial(0);
  nfa.AddAccepting(2);
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 1, 2);
  // L = {01} only at n = 2; empty for other n.
  Result<CountEstimate> r2 = ApproxCount(nfa, 2);
  Result<CountEstimate> r3 = ApproxCount(nfa, 3);
  ASSERT_TRUE(r2.ok() && r3.ok());
  EXPECT_NEAR(r2->estimate, 1.0, 0.4);
  EXPECT_EQ(r3->estimate, 0.0);
}

TEST(FailureInjection, MemoCapacityZeroStillCorrect) {
  Nfa nfa = ParityNfa(2);
  const int n = 7;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.35, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasParams no_cache = *params;
  no_cache.descent_cache_capacity = 0;  // the cache stores nothing
  FprasEngine engine(&nfa, no_cache, 9);
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.EstimateAtLength(n) / 64.0, 1.0, 0.5);  // 2^{n-1}
}

TEST(FailureInjection, RerunningEngineIsIdempotent) {
  Rng rng(TestSeed(10));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), 6, 0.3, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, 11);
  ASSERT_TRUE(engine.Run().ok());
  double first = engine.EstimateAtLength(engine.horizon());
  ASSERT_TRUE(engine.Run().ok());  // re-run resets and recomputes
  const double second = engine.EstimateAtLength(engine.horizon());
  EXPECT_TRUE(std::isfinite(second));
  EXPECT_GT(second, 0.0);
  (void)first;
}

}  // namespace
}  // namespace nfacount
