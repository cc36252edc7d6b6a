// Property-based sweeps: randomized structural invariants that must hold for
// every automaton/regex/run, checked over seeded grids. These complement the
// per-module unit tests with cross-cutting algebraic laws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "automata/dfa.hpp"
#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "automata/regex.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

// ---------------------------------------------------------------------------
// Random regex generation (for compiler fuzzing against the AST matcher)
// ---------------------------------------------------------------------------

std::string RandomRegex(Rng& rng, int depth, int alphabet) {
  if (depth <= 0 || rng.Bernoulli(0.35)) {
    // Leaf: symbol, dot, or class.
    double u = rng.UniformDouble();
    if (u < 0.6) {
      return std::string(1, SymbolToChar(static_cast<Symbol>(
                                rng.UniformU64(alphabet))));
    }
    if (u < 0.8) return ".";
    std::string cls = "[";
    if (rng.Bernoulli(0.3)) cls += "^";
    int count = 1 + static_cast<int>(rng.UniformU64(alphabet));
    for (int i = 0; i < count; ++i) {
      cls += SymbolToChar(static_cast<Symbol>(rng.UniformU64(alphabet)));
    }
    return cls + "]";
  }
  switch (rng.UniformU64(6)) {
    case 0:
      return RandomRegex(rng, depth - 1, alphabet) +
             RandomRegex(rng, depth - 1, alphabet);
    case 1:
      return "(" + RandomRegex(rng, depth - 1, alphabet) + "|" +
             RandomRegex(rng, depth - 1, alphabet) + ")";
    case 2:
      return "(" + RandomRegex(rng, depth - 1, alphabet) + ")*";
    case 3:
      return "(" + RandomRegex(rng, depth - 1, alphabet) + ")+";
    case 4:
      return "(" + RandomRegex(rng, depth - 1, alphabet) + ")?";
    default: {
      int lo = static_cast<int>(rng.UniformU64(3));
      int hi = lo + static_cast<int>(rng.UniformU64(3));
      return "(" + RandomRegex(rng, depth - 1, alphabet) + "){" +
             std::to_string(lo) + "," + std::to_string(hi) + "}";
    }
  }
}

class RegexFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RegexFuzz, CompiledNfaAgreesWithAstMatcherOnAllShortWords) {
  Rng rng(TestSeed(1000 + GetParam()));
  const int alphabet = 2 + GetParam() % 2;
  std::string pattern = RandomRegex(rng, 3, alphabet);
  SCOPED_TRACE(pattern);
  Result<std::unique_ptr<RegexNode>> ast = ParseRegex(pattern, alphabet);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  Nfa nfa = CompileRegexAst(*ast.value(), alphabet);

  Word w;
  const int max_len = 6;
  // Iterate all words up to max_len via odometer per length.
  for (int n = 0; n <= max_len; ++n) {
    w.assign(n, 0);
    int64_t total = 1;
    for (int i = 0; i < n; ++i) total *= alphabet;
    for (int64_t x = 0; x < total; ++x) {
      int64_t v = x;
      for (int i = 0; i < n; ++i) {
        w[i] = static_cast<Symbol>(v % alphabet);
        v /= alphabet;
      }
      ASSERT_EQ(nfa.Accepts(w), RegexMatches(*ast.value(), w))
          << "pattern=" << pattern << " word=" << WordToString(w);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Counting algebra over random automata
// ---------------------------------------------------------------------------

class CountingAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(CountingAlgebra, InclusionExclusionAcrossUnionAndIntersection) {
  // |L_n(A)| + |L_n(B)| = |L_n(A ∪ B)| + |L_n(A ∩ B)| for every n.
  Rng rng(TestSeed(2000 + GetParam()));
  Nfa a = RandomNfa(5, 0.3, 0.3, rng);
  Nfa b = RandomNfa(4, 0.35, 0.3, rng);
  Nfa u = Union(a, b);
  Nfa i = Intersect(a, b);
  for (int n = 0; n <= 7; ++n) {
    BigUint lhs = BruteForceCount(a, n).value() + BruteForceCount(b, n).value();
    BigUint rhs = BruteForceCount(u, n).value() + BruteForceCount(i, n).value();
    EXPECT_EQ(lhs, rhs) << "n=" << n;
  }
}

TEST_P(CountingAlgebra, ReversePreservesCounts) {
  Rng rng(TestSeed(3000 + GetParam()));
  Nfa a = RandomNfa(5, 0.3, 0.3, rng);
  Nfa r = Reverse(a);
  for (int n = 0; n <= 7; ++n) {
    EXPECT_EQ(BruteForceCount(a, n).value(), BruteForceCount(r, n).value())
        << "n=" << n;
  }
}

TEST_P(CountingAlgebra, ComplementCountsSumToAlphabetPower) {
  Rng rng(TestSeed(4000 + GetParam()));
  Nfa a = RandomNfa(5, 0.3, 0.3, rng);
  Result<Dfa> dfa = Determinize(a);
  ASSERT_TRUE(dfa.ok());
  Dfa comp = Complement(*dfa);
  for (int n = 0; n <= 16; ++n) {
    EXPECT_EQ(dfa->CountWordsOfLength(n) + comp.CountWordsOfLength(n),
              BigUint::Pow2(static_cast<uint32_t>(n)));
  }
}

TEST_P(CountingAlgebra, MinimizationPreservesCounts) {
  Rng rng(TestSeed(5000 + GetParam()));
  Nfa a = RandomNfa(6, 0.25, 0.3, rng);
  Result<Dfa> dfa = Determinize(a);
  ASSERT_TRUE(dfa.ok());
  Dfa min = Minimize(*dfa);
  for (int n = 0; n <= 12; ++n) {
    EXPECT_EQ(dfa->CountWordsOfLength(n), min.CountWordsOfLength(n));
  }
}

TEST_P(CountingAlgebra, TextRoundTripPreservesCounts) {
  Rng rng(TestSeed(6000 + GetParam()));
  Nfa a = RandomNfa(5, 0.3, 0.3, rng);
  Result<Nfa> round = ParseNfaText(NfaToText(a));
  ASSERT_TRUE(round.ok());
  for (int n = 0; n <= 8; ++n) {
    EXPECT_EQ(BruteForceCount(a, n).value(),
              BruteForceCount(*round, n).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountingAlgebra, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// FPRAS invariants under randomized instances
// ---------------------------------------------------------------------------

class FprasProperties : public ::testing::TestWithParam<int> {};

TEST_P(FprasProperties, EstimateNonNegativeFiniteAndSeedStable) {
  Rng rng(TestSeed(7000 + GetParam()));
  Nfa a = RandomNfa(4 + GetParam() % 4, 0.3, 0.3, rng);
  CountOptions options;
  options.eps = 0.4;
  options.delta = 0.25;
  options.seed = TestSeed(42 + GetParam());
  Result<CountEstimate> r1 = ApproxCount(a, 6, options);
  Result<CountEstimate> r2 = ApproxCount(a, 6, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(std::isfinite(r1->estimate));
  EXPECT_GE(r1->estimate, 0.0);
  EXPECT_DOUBLE_EQ(r1->estimate, r2->estimate);
}

TEST_P(FprasProperties, EstimateZeroIffLanguageEmpty) {
  Rng rng(TestSeed(8000 + GetParam()));
  Nfa a = RandomNfa(5, 0.2, 0.15, rng);
  const int n = 6;
  Result<BigUint> exact = BruteForceCount(a, n);
  ASSERT_TRUE(exact.ok());
  CountOptions options;
  options.eps = 0.4;
  options.delta = 0.25;
  options.seed = TestSeed(5 + GetParam());
  Result<CountEstimate> r = ApproxCount(a, n, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->estimate == 0.0, exact->IsZero());
}

TEST_P(FprasProperties, SchedulesAgreeWithinTolerance) {
  Rng rng(TestSeed(9000 + GetParam()));
  Nfa a = RandomNfa(4, 0.35, 0.3, rng);
  const int n = 6;
  Result<BigUint> exact = BruteForceCount(a, n);
  ASSERT_TRUE(exact.ok());
  if (exact->IsZero()) return;
  const double truth = exact->ToDouble();
  CountOptions options;
  options.eps = 0.4;
  options.delta = 0.25;
  options.seed = TestSeed(77 + GetParam());
  options.calibration.ns_scale = 1e-11;  // keep the κ⁷ budget feasible
  Result<CountEstimate> fast = ApproxCount(a, n, options);
  options.schedule = Schedule::kAcjr;
  Result<CountEstimate> acjr = ApproxCount(a, n, options);
  ASSERT_TRUE(fast.ok() && acjr.ok());
  EXPECT_NEAR(fast->estimate / truth, 1.0, 0.8);
  EXPECT_NEAR(acjr->estimate / truth, 1.0, 0.8);
}

TEST_P(FprasProperties, AllLengthsMonotoneUnderPrefixClosedLanguages) {
  // For the substring family the language slice sizes are nondecreasing in n
  // (any accepted word extends to an accepted longer one, and counts grow).
  Word pattern{1, static_cast<Symbol>(GetParam() % 2)};
  Nfa a = SubstringNfa(pattern);
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(88 + GetParam());
  Result<std::vector<double>> lengths = ApproxCountAllLengths(a, 9, options);
  ASSERT_TRUE(lengths.ok());
  for (size_t i = 3; i < lengths->size(); ++i) {
    EXPECT_GE((*lengths)[i] * 1.6, (*lengths)[i - 1])
        << "slice sizes should not collapse (i=" << i << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FprasProperties, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Sampler properties
// ---------------------------------------------------------------------------

class SamplerProperties : public ::testing::TestWithParam<int> {};

TEST_P(SamplerProperties, EverySampleIsAccepted) {
  Rng rng(TestSeed(10000 + GetParam()));
  Nfa a = RandomNfa(5, 0.3, 0.35, rng);
  const int n = 6;
  Result<BigUint> exact = BruteForceCount(a, n);
  ASSERT_TRUE(exact.ok());
  if (exact->IsZero()) return;
  CountOptions options;
  options.eps = 0.35;
  options.delta = 0.25;
  options.seed = TestSeed(3 + GetParam());
  Result<EngineSession> session = EngineSession::Create(a, n, options);
  ASSERT_TRUE(session.ok());
  Result<std::vector<Word>> words = session->SampleWords(n, 60);
  ASSERT_TRUE(words.ok());
  for (const Word& w : *words) {
    EXPECT_TRUE(a.Accepts(w)) << WordToString(w);
    EXPECT_EQ(static_cast<int>(w.size()), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerProperties, ::testing::Range(0, 10));

}  // namespace
}  // namespace nfacount
