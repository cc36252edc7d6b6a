// Tier-2 concurrency stress for the parallel level-sweep engine. With the
// descent cache disabled, every (q,ℓ) cell recomputes all of its union sizes
// — maximum concurrent pressure on the shared read-only tables, the
// per-worker scratch, and the pool itself — and the result must still be
// bit-identical to the sequential run. Sized to stay minutes-cheap under
// ThreadSanitizer on a single core while still crossing every lock/atomic in
// the pool and the per-worker scratch thousands of times per run.

#include <gtest/gtest.h>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

TEST(ParallelStress, MemoDisabledManyThreadsMatchesSequential) {
  Rng rng(TestSeed(371));
  for (int trial = 0; trial < 2; ++trial) {
    Nfa nfa = RandomNfa(10, 0.25, 0.3, rng);
    const int n = 7;
    CountOptions base;
    base.eps = 0.35;
    base.delta = 0.2;
    base.seed = TestSeed(372) + trial;
    // The descent cache skips union estimations on a hit, and its hit
    // pattern is scheduling-dependent — results stay bit-identical (the
    // identity grid in test_descent_cache.cpp) but the appunion_trials
    // work counter below would not. Off, so every walk recomputes.
    base.descent_cache_capacity = 0;

    CountOptions sequential = base;
    sequential.num_threads = 1;
    CountOptions parallel = base;
    parallel.num_threads = 8;

    Result<CountEstimate> a = ApproxCount(nfa, n, sequential);
    Result<CountEstimate> b = ApproxCount(nfa, n, parallel);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->estimate, b->estimate) << "trial=" << trial;
    EXPECT_EQ(a->diagnostics.sample_calls, b->diagnostics.sample_calls);
    EXPECT_EQ(a->diagnostics.appunion_trials, b->diagnostics.appunion_trials);
    EXPECT_EQ(a->diagnostics.memo_hits, 0);
    EXPECT_EQ(b->diagnostics.memo_hits, 0);
  }
}

TEST(ParallelStress, RepeatedParallelRunsAreStable) {
  // Same engine configuration run three times at 8 threads: scheduling noise
  // across runs must never leak into any estimate.
  Rng rng(TestSeed(381));
  Nfa nfa = RandomNfa(9, 0.3, 0.3, rng);
  const int n = 7;
  CountOptions o;
  o.eps = 0.35;
  o.delta = 0.2;
  o.seed = TestSeed(382);
  o.num_threads = 8;

  Result<CountEstimate> first = ApproxCount(nfa, n, o);
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 2; ++rep) {
    Result<CountEstimate> again = ApproxCount(nfa, n, o);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(first->estimate, again->estimate) << "rep=" << rep;
  }
}

TEST(ParallelStress, ParallelAcrossAblationGrid) {
  // The invariance must hold in every ablation corner, not just the default
  // configuration (each flag changes which code runs on the workers).
  Rng rng(TestSeed(391));
  Nfa nfa = RandomNfa(8, 0.3, 0.3, rng);
  const int n = 6;
  for (bool perturb : {true, false}) {
    for (bool recycle : {true, false}) {
      CountOptions o;
      o.eps = 0.35;
      o.delta = 0.2;
      o.seed = TestSeed(392);
      o.perturb_support = perturb;
      o.recycle_samples = recycle;
      CountOptions par = o;
      par.num_threads = 6;
      Result<CountEstimate> a = ApproxCount(nfa, n, o);
      Result<CountEstimate> b = ApproxCount(nfa, n, par);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->estimate, b->estimate)
          << "perturb=" << perturb << " recycle=" << recycle;
    }
  }
}

}  // namespace
}  // namespace nfacount
