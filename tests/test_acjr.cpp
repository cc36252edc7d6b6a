// Tests for the ACJR-style baseline schedule (Schedule::kAcjr) and the
// schedule gap it measures.

#include <gtest/gtest.h>

#include <cmath>

#include "automata/generators.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

TEST(Acjr, ScheduleRatioMatchesHeadlineGap) {
  // ns_acjr/ns_faster = (mn/ε)⁷ / ~O(n⁴/ε² log) — grows with every knob.
  const auto ratio = [](int m, int n, double eps, double delta) {
    return AcjrScheduleNs(m, n, eps) / FasterScheduleNs(m, n, eps, delta);
  };
  double r1 = ratio(4, 8, 0.5, 0.1);
  double r2 = ratio(8, 8, 0.5, 0.1);
  double r3 = ratio(8, 16, 0.5, 0.1);
  double r4 = ratio(8, 16, 0.25, 0.1);
  EXPECT_GT(r2, r1 * 100);  // m⁷ effect (ours is m-free)
  EXPECT_GT(r3, r2 * 4);    // n⁷ vs n⁴
  EXPECT_GT(r4, r3 * 10);   // ε⁻⁷ vs ε⁻²
}

TEST(Acjr, BudgetsAtEqualCalibrationAreLarger) {
  Calibration cal = Calibration::Practical();
  Result<FprasParams> fast = FprasParams::Make(Schedule::kFaster, 6, 8, 0.3,
                                               0.2, cal);
  Result<FprasParams> acjr = FprasParams::Make(Schedule::kAcjr, 6, 8, 0.3,
                                               0.2, cal);
  ASSERT_TRUE(fast.ok() && acjr.ok());
  EXPECT_GT(acjr->ns, fast->ns);
  EXPECT_GT(acjr->xns, fast->xns);
}

TEST(Acjr, EndToEndAccurateOnSmallInstances) {
  // Correctness of the template does not depend on the schedule; the ACJR
  // budget must also land within the envelope (it is just slower).
  Nfa nfa = SubstringNfa(Word{1, 0});
  const int n = 7;
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  ASSERT_TRUE(exact.ok());
  CountOptions options;
  options.eps = 0.4;
  options.delta = 0.2;
  options.seed = TestSeed(64);
  // Trim the ACJR budget so the test stays fast: the κ⁷ formula under the
  // practical scale still dwarfs the fast schedule.
  options.calibration.ns_scale = 1e-11;
  options.schedule = Schedule::kAcjr;
  Result<CountEstimate> r = ApproxCount(nfa, n, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->params.schedule, Schedule::kAcjr);
  EXPECT_NEAR(r->estimate / exact->ToDouble(), 1.0, 0.6);
}

TEST(Acjr, SampleBudgetIndependenceClaim) {
  // The paper's abstract: our per-state budget is independent of m. Verify
  // through FprasParams at faithful scale: growing m by 16x changes ns by
  // < 5% for kFaster but by 16⁷ for kAcjr.
  Result<FprasParams> fast_small =
      FprasParams::Make(Schedule::kFaster, 4, 10, 0.2, 0.1);
  Result<FprasParams> fast_large =
      FprasParams::Make(Schedule::kFaster, 64, 10, 0.2, 0.1);
  ASSERT_TRUE(fast_small.ok() && fast_large.ok());
  EXPECT_LT(static_cast<double>(fast_large->ns) / fast_small->ns, 1.3);

  // The κ⁷ budget at m=64 overflows the int64 clamp inside FprasParams, so
  // compare the raw (unclamped) schedule functions.
  EXPECT_NEAR(AcjrScheduleNs(64, 10, 0.2) / AcjrScheduleNs(4, 10, 0.2),
              std::pow(16.0, 7), std::pow(16.0, 7) * 1e-9);
}

}  // namespace
}  // namespace nfacount
