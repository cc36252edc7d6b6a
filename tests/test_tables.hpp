// Shared table-equality support for the determinism suites (test_batch,
// test_session, test_checkpoint): one definition of "two engines hold
// bit-identical per-(q,ℓ) state", so every suite asserts the same notion of
// identical when StateLevelData grows a field, plus the scoped kernel-table
// switch those suites flip.

#ifndef NFACOUNT_TESTS_TEST_TABLES_HPP_
#define NFACOUNT_TESTS_TEST_TABLES_HPP_

#include <gtest/gtest.h>

#include "fpras/estimator.hpp"
#include "util/simd.hpp"

namespace nfacount {
namespace testing_support {

/// Full per-(q,ℓ) table equality between two engines over levels
/// 0..max_level: each level's |L(A_ℓ)|, count estimates, stored words, and
/// reach profiles, bit for bit.
inline void ExpectTablesIdentical(const FprasEngine& a, const FprasEngine& b,
                                  const Nfa& nfa, int max_level) {
  for (int level = 0; level <= max_level; ++level) {
    EXPECT_EQ(a.EstimateAtLength(level), b.EstimateAtLength(level))
        << "level=" << level;
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      EXPECT_EQ(a.CountEstimateFor(q, level), b.CountEstimateFor(q, level))
          << "q=" << q << " level=" << level;
      const auto sa = a.SamplesFor(q, level);
      const auto sb = b.SamplesFor(q, level);
      ASSERT_EQ(sa.size(), sb.size()) << "q=" << q << " level=" << level;
      for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].word, sb[i].word)
            << "q=" << q << " level=" << level << " i=" << i;
        EXPECT_EQ(sa[i].reach, sb[i].reach)
            << "q=" << q << " level=" << level << " i=" << i;
      }
    }
  }
}

/// The session/checkpoint suites' common options point (moderate accuracy,
/// fast at unit-test sizes).
inline CountOptions SessionTestOptions(uint64_t seed) {
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = seed;
  return options;
}

/// Forces the scalar kernel table process-wide for its lifetime, then
/// restores auto-detection (which still honors NFACOUNT_FORCE_SCALAR). The
/// kernel table is read when an engine is prepared, so build the engine (or
/// load the session) inside the scope.
class ScopedForceScalar {
 public:
  ScopedForceScalar() { simd::SetForceScalar(true); }
  ~ScopedForceScalar() { simd::SetForceScalar(false); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

}  // namespace testing_support
}  // namespace nfacount

#endif  // NFACOUNT_TESTS_TEST_TABLES_HPP_
