// Tests for the almost-uniform word sampler (Algorithm 2 / Theorem 2 /
// Inv-2): support correctness, empirical closeness to uniform in TV distance
// on exactly-enumerable languages, rejection-rate bounds, and the public
// EngineSession::SampleWords draw surface.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/stats.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

CountOptions Opts(uint64_t seed) {
  CountOptions o;
  o.eps = 0.3;
  o.delta = 0.2;
  o.seed = seed;
  return o;
}

/// `count` words of L(A_n) from a fresh session, drawn in one call.
Result<std::vector<Word>> Draw(const Nfa& nfa, int n, int64_t count,
                               uint64_t seed) {
  Result<EngineSession> session = EngineSession::Create(nfa, n, Opts(seed));
  if (!session.ok()) return session.status();
  return session->SampleWords(n, count);
}

TEST(Sampler, SamplesAreAlwaysInLanguage) {
  Rng rng(TestSeed(2));
  for (int trial = 0; trial < 4; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int n = 7;
    Result<std::vector<Word>> lang = EnumerateAccepted(nfa, n);
    ASSERT_TRUE(lang.ok());
    if (lang->empty()) continue;
    Result<std::vector<Word>> words = Draw(nfa, n, 200, TestSeed(50 + trial));
    ASSERT_TRUE(words.ok()) << words.status().ToString();
    ASSERT_EQ(words->size(), 200u);
    std::set<Word> language(lang->begin(), lang->end());
    for (const Word& w : *words) {
      ASSERT_TRUE(language.count(w)) << WordToString(w) << " not in L(A_n)";
    }
  }
}

TEST(Sampler, EmpiricallyCloseToUniformInTv) {
  // Inv-2 check on a small language (|L| = 11 words of length 5 containing
  // "101"): empirical TV to uniform over ~6000 draws should be small.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const int n = 5;
  Result<std::vector<Word>> lang = EnumerateAccepted(nfa, n);
  ASSERT_TRUE(lang.ok());
  const int64_t support = static_cast<int64_t>(lang->size());
  ASSERT_GT(support, 0);

  const int64_t draws = 6000;
  Result<std::vector<Word>> words = Draw(nfa, n, draws, TestSeed(404));
  ASSERT_TRUE(words.ok());
  std::map<std::string, int64_t> histogram;
  for (const Word& w : *words) ++histogram[WordToString(w)];
  EXPECT_EQ(static_cast<int64_t>(histogram.size()), support)
      << "sampler missed part of the support";
  // Sampling noise alone gives TV ~ sqrt(|L|/draws)/2 ~ 0.02; the sampler's
  // own bias (eps-calibrated) adds a bit. 0.12 catches real skew.
  EXPECT_LT(EmpiricalTvToUniform(histogram, draws, support), 0.12);
}

TEST(Sampler, UniformAcrossDisjointBranchesOfUnevenSize) {
  // Language = {00xx...} ∪ {1yyy..}: branch proportions must follow language
  // sizes, not branch counts. Words: 0 0 w (w free, 2^3) plus 1 w (2^4):
  // proportions 8/24 vs 16/24.
  Nfa nfa(2);
  StateId s = nfa.AddState();
  StateId a1 = nfa.AddState();
  StateId a2 = nfa.AddState();
  StateId free_a = nfa.AddState();
  StateId free_b = nfa.AddState();
  nfa.SetInitial(s);
  nfa.AddTransition(s, 0, a1);
  nfa.AddTransition(a1, 0, a2);
  nfa.AddTransition(a2, 0, free_a);
  nfa.AddTransition(a2, 1, free_a);
  nfa.AddTransition(free_a, 0, free_a);
  nfa.AddTransition(free_a, 1, free_a);
  nfa.AddTransition(s, 1, free_b);
  nfa.AddTransition(free_b, 0, free_b);
  nfa.AddTransition(free_b, 1, free_b);
  nfa.AddAccepting(free_a);
  nfa.AddAccepting(free_b);
  const int n = 5;
  // L = 00 + 3 free (8 words) ∪ 1 + 4 free (16 words); disjoint.
  const int64_t draws = 4000;
  Result<std::vector<Word>> words = Draw(nfa, n, draws, TestSeed(777));
  ASSERT_TRUE(words.ok());
  int64_t zeros = 0, ones = 0;
  for (const Word& w : *words) (w[0] == 0 ? zeros : ones) += 1;
  EXPECT_NEAR(static_cast<double>(ones) / draws, 16.0 / 24.0, 0.05);
  EXPECT_NEAR(static_cast<double>(zeros) / draws, 8.0 / 24.0, 0.05);
}

TEST(Sampler, RejectionRateRespectsTheorem2Bound) {
  // Theorem 2(2): per-attempt failure ≤ 1 − 2/(3e²) ≈ 0.9098 given accurate
  // tables; empirically the success rate should be near 2/(3e)·L/N ≈ 0.245
  // for accurate N. Check the diagnostic counters of a full run.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(31337);
  Result<CountEstimate> r = ApproxCount(nfa, 10, options);
  ASSERT_TRUE(r.ok());
  const FprasDiagnostics& d = r->diagnostics;
  const double success_rate =
      static_cast<double>(d.sample_success) / static_cast<double>(d.sample_calls);
  EXPECT_GT(success_rate, 0.12);  // comfortably above catastrophic rejection
  EXPECT_LT(success_rate, 0.45);  // and below the γ0 ceiling 2/(3e) ≈ 0.245 + noise
}

TEST(Sampler, EmptyLanguageReportsNotFound) {
  Nfa nfa(2);
  nfa.AddStates(2);
  nfa.SetInitial(0);
  nfa.AddAccepting(1);  // unreachable
  nfa.AddTransition(0, 0, 0);
  nfa.AddTransition(0, 1, 0);
  Result<std::vector<Word>> w = Draw(nfa, 5, 1, TestSeed(1));
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kNotFound);
}

TEST(Sampler, LengthZeroLanguage) {
  Nfa nfa(2);
  StateId q = nfa.AddState();
  nfa.SetInitial(q);
  nfa.AddAccepting(q);
  nfa.AddTransition(q, 0, q);
  Result<std::vector<Word>> w = Draw(nfa, 0, 1, TestSeed(1));
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w->size(), 1u);
  EXPECT_TRUE(w->front().empty());
}

TEST(Sampler, SampleWordsCountsAndDeterminism) {
  Nfa nfa = ParityNfa(2);
  Result<std::vector<Word>> w1 = Draw(nfa, 6, 25, TestSeed(99));
  Result<std::vector<Word>> w2 = Draw(nfa, 6, 25, TestSeed(99));
  ASSERT_TRUE(w1.ok() && w2.ok());
  EXPECT_EQ(w1->size(), 25u);
  EXPECT_EQ(*w1, *w2);  // same seed, same words
}

TEST(Sampler, CountEstimateExposedMatchesFprasAccuracy) {
  Nfa nfa = ParityNfa(2);
  const int n = 8;
  Result<EngineSession> session =
      EngineSession::Create(nfa, n, Opts(TestSeed(5)));
  ASSERT_TRUE(session.ok());
  Result<double> estimate = session->CountAtLength(n);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate / 128.0, 1.0, 0.45);
}

TEST(Sampler, SingletonLanguageAlwaysReturnsTheWord) {
  Word needle{1, 1, 0, 1, 0, 0};
  Nfa nfa = SparseNeedle(needle);
  Result<std::vector<Word>> words =
      Draw(nfa, static_cast<int>(needle.size()), 20, TestSeed(8));
  ASSERT_TRUE(words.ok());
  ASSERT_EQ(words->size(), 20u);
  for (const Word& w : *words) EXPECT_EQ(w, needle);
}

TEST(Sampler, EngineDrawsAcceptedWordsAtInteriorLevels) {
  // Directly exercise FprasEngine::SampleAcceptedInto at a level below the
  // horizon: draws come from L(A_level), with γ0 from the level's stored
  // |L(A_level)|.
  Rng rng(TestSeed(10));
  Nfa nfa = RandomNfa(6, 0.35, 0.3, rng);
  const int n = 6;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.3, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, TestSeed(44));
  ASSERT_TRUE(engine.Run().ok());

  // The deepest interior level with a non-empty language.
  int level = n - 1;
  while (level > 0 && !(engine.EstimateAtLength(level) > 0.0)) --level;
  ASSERT_GT(level, 0);
  int successes = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<Word> drawn;  // one attempt: a word or a rejection
    engine.SampleAcceptedInto(level, 1, 1, &drawn);
    if (drawn.empty()) continue;
    const Word& w = drawn.front();
    ++successes;
    ASSERT_EQ(static_cast<int>(w.size()), level);
    EXPECT_TRUE(nfa.Accepts(w));
  }
  EXPECT_GT(successes, 30);
}

}  // namespace
}  // namespace nfacount
