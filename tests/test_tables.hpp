// Shared table-equality support for the determinism suites (test_batch,
// test_session, test_checkpoint, ...): one definition of "two engines hold
// bit-identical per-(q,ℓ) state", so every suite asserts the same notion of
// identical when StateLevelData grows a field, plus the engine-at-a-width
// builder and the draw helper those suites share.

#ifndef NFACOUNT_TESTS_TEST_TABLES_HPP_
#define NFACOUNT_TESTS_TEST_TABLES_HPP_

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fpras/session.hpp"

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

/// An engine prepared with the parameters `options` derives at horizon `n`,
/// but advancing `batch_width` walks in lockstep. The width is
/// engine-internal (sessions always run the default), so the invariance
/// suites sweep it here; run levels with RunToLevel.
inline std::unique_ptr<FprasEngine> EngineAtWidth(const Nfa& nfa, int n,
                                                  const CountOptions& options,
                                                  int batch_width) {
  Result<FprasParams> params = ParamsFromOptions(options, nfa.num_states(), n);
  EXPECT_TRUE(params.ok()) << params.status().ToString();
  if (!params.ok()) return nullptr;
  params->batch_width = batch_width;
  auto engine = std::make_unique<FprasEngine>(&nfa, *params, options.seed);
  const Status prepared = engine->Prepare();
  EXPECT_TRUE(prepared.ok()) << prepared.ToString();
  return prepared.ok() ? std::move(engine) : nullptr;
}

/// `count` words from L(A_level) taken the way one EngineSession::SampleWords
/// call takes them (same per-draw attempt budget); fewer only if the budget
/// runs out.
inline std::vector<Word> DrawWords(FprasEngine& engine, int level,
                                   int64_t count) {
  std::vector<Word> words;
  engine.SampleAcceptedInto(level, EngineSession::kAttemptsPerDraw * count,
                            count, &words);
  return words;
}

}  // namespace testing_support
}  // namespace nfacount

#endif  // NFACOUNT_TESTS_TEST_TABLES_HPP_
