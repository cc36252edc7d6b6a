// Core FPRAS tests (Algorithm 3 / Theorem 3): per-(q,ℓ) estimate accuracy
// (Inv-1) against exact subset-DP counts, end-to-end accuracy sweeps across
// families and sizes, diagnostics sanity, and option plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <tuple>

#include "automata/generators.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

CountOptions Opts(uint64_t seed, double eps = 0.3, double delta = 0.2) {
  CountOptions o;
  o.eps = eps;
  o.delta = delta;
  o.seed = seed;
  return o;
}

TEST(Fpras, Inv1HoldsPerStateAndLevel) {
  // AccurateN_{q,ℓ}: N(q^ℓ) within (1±β)^ℓ ≈ (1 ± ε/2n²)·ℓ of |L(q^ℓ)|.
  // Empirically (calibrated constants) we verify a generous multiplicative
  // envelope per (q, ℓ) — systematic estimator bugs blow far past it.
  Rng rng(TestSeed(17));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 7;
  Result<SubsetDp> dp = SubsetDp::Run(nfa, n);
  ASSERT_TRUE(dp.ok());

  Result<FprasParams> params =
      FprasParams::Make(Schedule::kFaster, nfa.num_states(), n, 0.3, 0.2,
                        Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, /*seed=*/TestSeed(2024));
  ASSERT_TRUE(engine.Run().ok());

  for (int level = 1; level <= n; ++level) {
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      const double truth = dp->StateLevelCount(q, level).ToDouble();
      const double est = engine.CountEstimateFor(q, level);
      if (truth == 0.0) {
        EXPECT_EQ(est, 0.0) << "q=" << q << " level=" << level;
      } else {
        EXPECT_GT(est / truth, 0.55) << "q=" << q << " level=" << level;
        EXPECT_LT(est / truth, 1.8) << "q=" << q << " level=" << level;
      }
    }
  }
}

TEST(Fpras, SampleSetsHaveExactlyNsEntriesInLanguage) {
  Rng rng(TestSeed(23));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  const int n = 6;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.4, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, TestSeed(7));
  ASSERT_TRUE(engine.Run().ok());
  const UnrolledNfa& unr = engine.unrolled();
  for (int level = 0; level <= n; ++level) {
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      const auto& samples = engine.SamplesFor(q, level);
      if (!unr.IsReachable(q, level)) {
        EXPECT_TRUE(samples.empty());
        continue;
      }
      if (level == 0) continue;  // base case: ns copies of λ at the initial
      ASSERT_EQ(static_cast<int64_t>(samples.size()), params->ns)
          << "q=" << q << " level=" << level;
      for (const StoredSample& s : samples) {
        ASSERT_EQ(static_cast<int>(s.word.size()), level);
        // Support invariant: every stored word is genuinely in L(q^ℓ).
        ASSERT_TRUE(nfa.Reach(s.word).Test(q))
            << WordToString(s.word) << " not in L(" << q << "^" << level << ")";
        // Cached reach profile matches recomputation.
        ASSERT_EQ(s.reach, nfa.Reach(s.word));
      }
    }
  }
}

struct FamilyCase {
  std::string family;
  int n;
};

class FprasFamilyAccuracy
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FprasFamilyAccuracy, EstimateWithinEnvelope) {
  const auto [family_idx, n] = GetParam();
  auto families = StandardFamilies(5, n, 31);
  ASSERT_LT(static_cast<size_t>(family_idx), families.size());
  const FamilyInstance& family = families[family_idx];
  SCOPED_TRACE(family.name + " n=" + std::to_string(n));

  Result<BigUint> exact = ExactCountViaDfa(family.nfa, n);
  ASSERT_TRUE(exact.ok());
  Result<CountEstimate> approx =
      ApproxCount(family.nfa, n, Opts(TestSeed(1234 + n)));
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();

  const double truth = exact->ToDouble();
  if (truth == 0.0) {
    EXPECT_EQ(approx->estimate, 0.0);
  } else {
    EXPECT_NEAR(approx->estimate / truth, 1.0, 0.6)
        << "estimate=" << approx->estimate << " truth=" << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLengths, FprasFamilyAccuracy,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(4, 8, 11)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Fpras, RepeatedRunsConcentrateAroundTruth) {
  // δ-style census: over 20 seeds, the large majority must fall within
  // (1±ε); the mean must be nearly unbiased.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const int n = 10;
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  ASSERT_TRUE(exact.ok());
  const double truth = exact->ToDouble();

  int within = 0;
  double sum = 0.0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    Result<CountEstimate> approx =
        ApproxCount(nfa, n, Opts(TestSeed(9000 + i), 0.3, 0.2));
    ASSERT_TRUE(approx.ok());
    const double ratio = approx->estimate / truth;
    sum += ratio;
    if (ratio >= 1.0 / 1.3 && ratio <= 1.3) ++within;
  }
  EXPECT_GE(within, 17) << "too many runs outside (1±eps)";
  EXPECT_NEAR(sum / trials, 1.0, 0.12);
}

TEST(Fpras, DiagnosticsAreConsistent) {
  Rng rng(TestSeed(3));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<CountEstimate> r = ApproxCount(nfa, 6, Opts(TestSeed(5)));
  ASSERT_TRUE(r.ok());
  const FprasDiagnostics& d = r->diagnostics;
  EXPECT_GT(d.appunion_calls, 0);
  EXPECT_GT(d.appunion_trials, 0);
  EXPECT_GT(d.sample_calls, 0);
  EXPECT_EQ(d.sample_calls,
            d.sample_success + d.fail_phi_gt_1 + d.fail_bernoulli +
                d.fail_dead_branch);
  EXPECT_GT(d.states_processed, 0);
  EXPECT_GE(d.wall_seconds, 0.0);
  // memo_hits/memo_misses count descent-cache union-size probes, which a
  // process-wide NFACOUNT_DESCENT_CACHE=0 switches off.
  if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
    EXPECT_GT(d.memo_hits + d.memo_misses, 0);
  }
}

TEST(Fpras, MemoizationDoesNotChangeAccuracyButSavesWork) {
  Nfa nfa = SubstringNfa(Word{1, 1, 0});
  const int n = 9;
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  ASSERT_TRUE(exact.ok());
  const double truth = exact->ToDouble();

  // The descent cache is the engine's one union-size cache; capacity 0 is
  // the uncached reference. Both runs draw from the same content-keyed
  // substreams, so the cache may only save work, never move the estimate.
  CountOptions cached = Opts(TestSeed(77));
  CountOptions uncached = Opts(TestSeed(77));
  uncached.descent_cache_capacity = 0;

  Result<CountEstimate> a = ApproxCount(nfa, n, cached);
  Result<CountEstimate> b = ApproxCount(nfa, n, uncached);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->estimate / truth, 1.0, 0.5);
  EXPECT_EQ(a->estimate, b->estimate);
  EXPECT_EQ(b->diagnostics.memo_hits, 0);
  // NFACOUNT_DESCENT_CACHE=0 disables the cache process-wide, so the
  // work-saving half only holds without the override.
  if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
    EXPECT_GT(a->diagnostics.memo_hits, 0);
    EXPECT_LT(a->diagnostics.appunion_trials,
              b->diagnostics.appunion_trials);
  }
}

TEST(Fpras, PerturbationBranchOffIsCleanRun) {
  Nfa nfa = SubstringNfa(Word{0, 1});
  CountOptions o = Opts(TestSeed(13));
  o.perturb_support = false;
  Result<CountEstimate> r = ApproxCount(nfa, 8, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->diagnostics.perturbed_counts, 0);
}

TEST(Fpras, AcjrScheduleAlsoAccurateOnTinyInstance) {
  // The ACJR budget is larger at equal calibration; on a tiny instance both
  // schedules must land near the truth.
  Nfa nfa = CombinationLock(Word{1, 0});
  const int n = 6;  // truth = 2^4 = 16
  Result<CountEstimate> fast = ApproxCount(nfa, n, Opts(TestSeed(21)));
  Result<CountEstimate> acjr = ApproxCountAcjr(nfa, n, Opts(TestSeed(21)));
  ASSERT_TRUE(fast.ok() && acjr.ok());
  EXPECT_NEAR(fast->estimate, 16.0, 8.0);
  EXPECT_NEAR(acjr->estimate, 16.0, 8.0);
  EXPECT_EQ(acjr->params.schedule, Schedule::kAcjr);
  EXPECT_GE(acjr->params.ns, fast->params.ns);
}

TEST(Fpras, InvalidInputsRejected) {
  Nfa no_initial(2);
  no_initial.AddState();
  EXPECT_FALSE(ApproxCount(no_initial, 5).ok());

  Nfa ok(2);
  StateId q = ok.AddState();
  ok.SetInitial(q);
  ok.AddAccepting(q);
  ok.AddTransition(q, 0, q);
  EXPECT_FALSE(ApproxCount(ok, -1).ok());
  CountOptions bad_eps;
  bad_eps.eps = 0.0;
  EXPECT_FALSE(ApproxCount(ok, 3, bad_eps).ok());
}

TEST(Fpras, UnaryAlphabet) {
  // |Σ| = 1: the only length-n word is 0^n; L(A_n) is {0^n} or empty.
  Nfa nfa(1);
  nfa.AddStates(3);
  nfa.SetInitial(0);
  nfa.AddAccepting(2);
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 0, 2);
  nfa.AddTransition(2, 0, 0);
  // Accepts 0^n iff n ≡ 2 (mod 3).
  Result<CountEstimate> r5 = ApproxCount(nfa, 5, Opts(TestSeed(3)));
  Result<CountEstimate> r6 = ApproxCount(nfa, 6, Opts(TestSeed(3)));
  ASSERT_TRUE(r5.ok() && r6.ok());
  EXPECT_NEAR(r5->estimate, 1.0, 0.4);
  EXPECT_EQ(r6->estimate, 0.0);
}

TEST(Fpras, QuaternaryAlphabet) {
  // Σ = {0,1,2,3}; words containing symbol 3.
  Nfa nfa = SubstringNfa(Word{3}, 4);
  const int n = 6;
  Result<BigUint> exact = BruteForceCount(nfa, n);
  ASSERT_TRUE(exact.ok());
  Result<CountEstimate> approx = ApproxCount(nfa, n, Opts(TestSeed(19)));
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx->estimate / exact->ToDouble(), 1.0, 0.5);
}

TEST(Fpras, AllLengthsFromOneRunMatchExact) {
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const int n = 10;
  Result<std::vector<double>> lengths =
      ApproxCountAllLengths(nfa, n, Opts(TestSeed(404)));
  ASSERT_TRUE(lengths.ok());
  ASSERT_EQ(lengths->size(), static_cast<size_t>(n + 1));
  Result<Dfa> dfa = Determinize(nfa);
  ASSERT_TRUE(dfa.ok());
  std::vector<BigUint> exact = dfa->CountWordsUpToLength(n);
  for (int len = 0; len <= n; ++len) {
    const double truth = exact[len].ToDouble();
    if (truth == 0.0) {
      EXPECT_EQ((*lengths)[len], 0.0) << "len=" << len;
    } else {
      EXPECT_NEAR((*lengths)[len] / truth, 1.0, 0.6) << "len=" << len;
    }
  }
}

TEST(Fpras, AllLengthsLengthZeroAndEmpty) {
  Nfa nfa(2);
  StateId q = nfa.AddState();
  nfa.SetInitial(q);
  nfa.AddAccepting(q);
  nfa.AddTransition(q, 0, q);
  // Accepts 0* only: |L(A_len)| = 1 for every length.
  Result<std::vector<double>> lengths =
      ApproxCountAllLengths(nfa, 5, Opts(TestSeed(1)));
  ASSERT_TRUE(lengths.ok());
  for (double est : *lengths) EXPECT_NEAR(est, 1.0, 0.4);

  Result<std::vector<double>> zero =
      ApproxCountAllLengths(nfa, 0, Opts(TestSeed(1)));
  ASSERT_TRUE(zero.ok());
  ASSERT_EQ(zero->size(), 1u);
  EXPECT_EQ((*zero)[0], 1.0);
}

TEST(Fpras, AllLengthsConsistentWithSingleCount) {
  // The level-n entry of the all-lengths run and a dedicated ApproxCount run
  // with the same seed share the same DP, so they must agree exactly.
  Nfa nfa = ParityNfa(3);
  const int n = 8;
  Result<std::vector<double>> lengths =
      ApproxCountAllLengths(nfa, n, Opts(TestSeed(777)));
  Result<CountEstimate> single = ApproxCount(nfa, n, Opts(TestSeed(777)));
  ASSERT_TRUE(lengths.ok() && single.ok());
  EXPECT_DOUBLE_EQ((*lengths)[n], single->estimate);
}

TEST(Fpras, LongerWordsStillAccurate) {
  // n = 24 with an exactly-known language size: divisible-by-3 numerals.
  Nfa nfa = DivisibilityNfa(3);
  const int n = 24;
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  ASSERT_TRUE(exact.ok());
  Result<CountEstimate> approx =
      ApproxCount(nfa, n, Opts(TestSeed(1001), 0.25, 0.2));
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx->estimate / exact->ToDouble(), 1.0, 0.4);
}

}  // namespace
}  // namespace nfacount
