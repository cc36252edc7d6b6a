// Tests for regular path queries: product construction semantics, answer
// counting against brute-force enumeration, up-to-length counting, answer
// sampling, and witness-path extraction.

#include <gtest/gtest.h>

#include <set>

#include "apps/rpq.hpp"
#include "automata/regex.hpp"
#include "counting/exact.hpp"
#include "fpras/session.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

// Small social-style graph over labels {0: "knows", 1: "works_with"}.
GraphDb DemoGraph() {
  GraphDb db(6, 2);
  EXPECT_TRUE(db.AddEdge(0, 0, 1).ok());
  EXPECT_TRUE(db.AddEdge(1, 0, 2).ok());
  EXPECT_TRUE(db.AddEdge(2, 0, 0).ok());
  EXPECT_TRUE(db.AddEdge(0, 1, 3).ok());
  EXPECT_TRUE(db.AddEdge(3, 1, 4).ok());
  EXPECT_TRUE(db.AddEdge(4, 0, 5).ok());
  EXPECT_TRUE(db.AddEdge(1, 1, 5).ok());
  EXPECT_TRUE(db.AddEdge(5, 0, 5).ok());
  return db;
}

// All label words of length n realizable from src to dst that the regex
// matches — brute force over words, path-checked via WitnessPaths.
std::set<Word> BruteForceAnswers(const GraphDb& db, int src, int dst,
                                 const std::string& regex, int n) {
  auto ast = ParseRegex(regex, db.num_labels());
  EXPECT_TRUE(ast.ok());
  std::set<Word> out;
  Word w(n, 0);
  int64_t total = 1;
  for (int i = 0; i < n; ++i) total *= db.num_labels();
  for (int64_t x = 0; x < total; ++x) {
    int64_t v = x;
    for (int i = 0; i < n; ++i) {
      w[i] = static_cast<Symbol>(v % db.num_labels());
      v /= db.num_labels();
    }
    if (!RegexMatches(*ast.value(), w)) continue;
    Result<std::vector<std::vector<int>>> paths = WitnessPaths(db, src, dst, w, 1);
    EXPECT_TRUE(paths.ok());
    if (!paths->empty()) out.insert(w);
  }
  return out;
}

TEST(GraphDb, EdgeValidation) {
  GraphDb db(3, 2);
  EXPECT_FALSE(db.AddEdge(3, 0, 0).ok());
  EXPECT_FALSE(db.AddEdge(0, 2, 0).ok());
  EXPECT_TRUE(db.AddEdge(0, 1, 2).ok());
  EXPECT_EQ(db.num_edges(), 1);
  EXPECT_EQ(db.Neighbors(0, 1), std::vector<int>{2});
}

TEST(GraphDb, ToNfaSimulatesGraph) {
  GraphDb db = DemoGraph();
  Result<Nfa> nfa = db.ToNfa(0, 5);
  ASSERT_TRUE(nfa.ok());
  // 0 -1-> 3 -1-> 4 -0-> 5 is a path: word "110".
  EXPECT_TRUE(nfa->Accepts(Word{1, 1, 0}));
  // 0 -0-> 1 -0-> 2: ends at 2, not 5.
  EXPECT_FALSE(nfa->Accepts(Word{0, 0}));
  EXPECT_FALSE(db.ToNfa(-1, 5).ok());
  EXPECT_FALSE(db.ToNfa(0, 6).ok());
}

TEST(Product, LanguageIsGraphWordsIntersectRegex) {
  GraphDb db = DemoGraph();
  const std::string regex = "(0|1)*0";  // anything ending with label 0
  Result<Nfa> product = BuildRpqProduct(db, 0, 5, regex);
  ASSERT_TRUE(product.ok());
  for (int n = 1; n <= 6; ++n) {
    std::set<Word> expect = BruteForceAnswers(db, 0, 5, regex, n);
    Result<std::vector<Word>> got = EnumerateAccepted(*product, n);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::set<Word>(got->begin(), got->end()), expect) << "n=" << n;
  }
}

TEST(CountRpq, MatchesBruteForce) {
  GraphDb db = DemoGraph();
  const std::string regex = "0*1{0,2}0*";
  const int n = 6;
  std::set<Word> expect = BruteForceAnswers(db, 0, 5, regex, n);
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(17);
  Result<CountEstimate> count = CountRpqAnswers(db, 0, 5, regex, n, options);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  if (expect.empty()) {
    EXPECT_EQ(count->estimate, 0.0);
  } else {
    EXPECT_NEAR(count->estimate / static_cast<double>(expect.size()), 1.0, 0.5);
  }
}

TEST(CountRpq, UpToLengthSumsLevels) {
  GraphDb db = DemoGraph();
  const std::string regex = "(0|1)*";
  const int n = 5;
  double expect = 0;
  for (int len = 0; len <= n; ++len) {
    expect += static_cast<double>(BruteForceAnswers(db, 0, 5, regex, len).size());
  }
  ASSERT_GT(expect, 0);
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(23);
  Result<double> total = CountRpqAnswersUpTo(db, 0, 5, regex, n, options);
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(total.value() / expect, 1.0, 0.5);
}

TEST(CountRpq, RejectsBadRegex) {
  GraphDb db = DemoGraph();
  EXPECT_FALSE(CountRpqAnswers(db, 0, 5, "((", 4).ok());
}

TEST(SampleRpq, AnswersMatchRegexAndGraph) {
  GraphDb db = DemoGraph();
  const std::string regex = "(0|1)*0";
  const int n = 5;
  std::set<Word> valid = BruteForceAnswers(db, 0, 5, regex, n);
  ASSERT_FALSE(valid.empty());
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = TestSeed(29);
  Result<std::vector<Word>> samples =
      SampleRpqAnswers(db, 0, 5, regex, n, 100, options);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), 100u);
  for (const Word& w : *samples) {
    EXPECT_TRUE(valid.count(w)) << WordToString(w);
  }
}

TEST(SampleRpq, NegativeCountIsStatusNotCrash) {
  GraphDb db = DemoGraph();
  Result<std::vector<Word>> samples =
      SampleRpqAnswers(db, 0, 5, "(0|1)*0", 5, /*count=*/-1);
  EXPECT_EQ(samples.status().code(), StatusCode::kInvalidArgument);
}

TEST(SampleRpq, CountAboveOneCallIsDrawnInChunks) {
  // One more word than a single SampleWords call may return. Length 0 keeps
  // the request cheap: node 0 → node 0 over the empty word, which (0|1)*
  // matches, so every answer is the empty word.
  GraphDb db = DemoGraph();
  const int64_t count = EngineSession::kMaxDrawsPerCall + 1;
  Result<std::vector<Word>> samples =
      SampleRpqAnswers(db, 0, 0, "(0|1)*", 0, count);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(samples->size()), count);
  EXPECT_TRUE(samples->front().empty());
  EXPECT_TRUE(samples->back().empty());
}

TEST(WitnessPaths, EnumeratesAllRealizations) {
  // Diamond: two distinct paths with the same label word.
  GraphDb db(4, 1);
  ASSERT_TRUE(db.AddEdge(0, 0, 1).ok());
  ASSERT_TRUE(db.AddEdge(0, 0, 2).ok());
  ASSERT_TRUE(db.AddEdge(1, 0, 3).ok());
  ASSERT_TRUE(db.AddEdge(2, 0, 3).ok());
  Result<std::vector<std::vector<int>>> paths =
      WitnessPaths(db, 0, 3, Word{0, 0});
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 2u);
  std::set<std::vector<int>> set(paths->begin(), paths->end());
  EXPECT_TRUE(set.count({0, 1, 3}));
  EXPECT_TRUE(set.count({0, 2, 3}));
}

TEST(WitnessPaths, RespectsLimitAndEmptyWord) {
  GraphDb db(4, 1);
  ASSERT_TRUE(db.AddEdge(0, 0, 1).ok());
  ASSERT_TRUE(db.AddEdge(0, 0, 2).ok());
  ASSERT_TRUE(db.AddEdge(1, 0, 3).ok());
  ASSERT_TRUE(db.AddEdge(2, 0, 3).ok());
  Result<std::vector<std::vector<int>>> limited =
      WitnessPaths(db, 0, 3, Word{0, 0}, /*limit=*/1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 1u);

  // Empty word: a path exists iff src == dst.
  Result<std::vector<std::vector<int>>> self = WitnessPaths(db, 2, 2, Word{});
  ASSERT_TRUE(self.ok());
  ASSERT_EQ(self->size(), 1u);
  EXPECT_EQ(self->front(), std::vector<int>{2});
  Result<std::vector<std::vector<int>>> cross = WitnessPaths(db, 0, 3, Word{});
  ASSERT_TRUE(cross.ok());
  EXPECT_TRUE(cross->empty());
}

TEST(WitnessPaths, NoPathForUnrealizableWord) {
  GraphDb db = DemoGraph();
  Result<std::vector<std::vector<int>>> paths =
      WitnessPaths(db, 0, 5, Word{1, 1, 1});
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());
}

TEST(Rpq, ThreeLabelAlphabet) {
  GraphDb db(4, 3);
  ASSERT_TRUE(db.AddEdge(0, 0, 1).ok());
  ASSERT_TRUE(db.AddEdge(1, 1, 2).ok());
  ASSERT_TRUE(db.AddEdge(2, 2, 3).ok());
  ASSERT_TRUE(db.AddEdge(3, 0, 3).ok());
  const std::string regex = "01(2)+0*";
  Result<Nfa> product = BuildRpqProduct(db, 0, 3, regex);
  ASSERT_TRUE(product.ok());
  EXPECT_TRUE(product->Accepts(Word{0, 1, 2}));
  EXPECT_TRUE(product->Accepts(Word{0, 1, 2, 0, 0}));
  EXPECT_FALSE(product->Accepts(Word{0, 1, 0}));
}

}  // namespace
}  // namespace nfacount
