// Symbol-class alphabet compression: partition correctness against a brute-
// force row comparison, bit-identical predecessor/successor expansion for
// every class member, the degenerate all-distinct-rows case, the identity
// grid on a compressed and a trivially partitioned family, and the accuracy
// envelope on the corpus-scale family.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "automata/generators.hpp"
#include "automata/symbol_classes.hpp"
#include "automata/unrolled.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::DrawWords;
using testing_support::EngineAtWidth;
using testing_support::ExpectTablesIdentical;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

/// True when symbols a and b have identical successor rows in `nfa` — the
/// definition the partition must reproduce, computed the slow way.
bool RowsEqual(const Nfa& nfa, Symbol a, Symbol b) {
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    Bitset ra(static_cast<size_t>(nfa.num_states()));
    Bitset rb(static_cast<size_t>(nfa.num_states()));
    for (StateId r : nfa.Successors(q, a)) ra.Set(static_cast<size_t>(r));
    for (StateId r : nfa.Successors(q, b)) rb.Set(static_cast<size_t>(r));
    if (!(ra == rb)) return false;
  }
  return true;
}

/// Checks every structural invariant of a computed partition against the
/// brute-force equivalence: same-class iff equal rows, representatives are
/// the strictly increasing smallest members, weights/members consistent.
void ExpectPartitionMatchesBruteForce(const Nfa& nfa) {
  const SymbolClassIndex classes = SymbolClassIndex::Compute(nfa);
  const int sigma = nfa.alphabet_size();
  ASSERT_EQ(classes.alphabet_size(), sigma);
  ASSERT_GE(classes.num_classes(), 1);
  ASSERT_LE(classes.num_classes(), sigma);

  // Equivalence agreement for every symbol pair.
  for (int a = 0; a < sigma; ++a) {
    for (int b = a; b < sigma; ++b) {
      const bool same_class = classes.ClassOf(static_cast<Symbol>(a)) ==
                              classes.ClassOf(static_cast<Symbol>(b));
      EXPECT_EQ(same_class,
                RowsEqual(nfa, static_cast<Symbol>(a), static_cast<Symbol>(b)))
          << "a=" << a << " b=" << b;
    }
  }

  // Representative = smallest member, strictly increasing across classes;
  // members enumerate the whole alphabet exactly once, ascending per class.
  int total_weight = 0;
  Symbol prev_rep = 0;
  for (int c = 0; c < classes.num_classes(); ++c) {
    const Symbol rep = classes.Representative(c);
    if (c > 0) {
      EXPECT_GT(rep, prev_rep) << "c=" << c;
    }
    prev_rep = rep;
    const int weight = classes.Weight(c);
    ASSERT_GE(weight, 1);
    total_weight += weight;
    EXPECT_EQ(classes.Member(c, 0), rep) << "c=" << c;
    for (int i = 0; i < weight; ++i) {
      const Symbol member = classes.Member(c, i);
      if (i > 0) {
        EXPECT_GT(member, classes.Member(c, i - 1)) << "c=" << c;
      }
      EXPECT_EQ(classes.ClassOf(member), c) << "member=" << member;
    }
  }
  EXPECT_EQ(total_weight, sigma);
}

TEST(SymbolClassPartition, MatchesBruteForceAcrossFamilies) {
  ExpectPartitionMatchesBruteForce(CorpusTokenNfa(4, 96, 4));
  ExpectPartitionMatchesBruteForce(SubstringNfa(Word{1, 0, 1}, 8));
  ExpectPartitionMatchesBruteForce(ParityNfa(3, 0, 12));
  ExpectPartitionMatchesBruteForce(DivisibilityNfa(7, 4));
  Rng rng(TestSeed(1601));
  ExpectPartitionMatchesBruteForce(RandomNfa(6, 0.3, 0.3, rng));
}

TEST(SymbolClassPartition, CorpusFamilyCollapsesToCategoryCount) {
  // Every category appears in the pattern: one class per category.
  EXPECT_EQ(SymbolClassIndex::Compute(CorpusTokenNfa(4, 512, 4)).num_classes(),
            4);
  // pattern_len=2 uses only categories 0 and 1; categories 2 and 3 share the
  // loop-only row and must merge into one class: 3 classes total.
  EXPECT_EQ(SymbolClassIndex::Compute(CorpusTokenNfa(2, 64, 4)).num_classes(),
            3);
  // The compression the tentpole targets: C stays put as |Σ| grows.
  EXPECT_EQ(
      SymbolClassIndex::Compute(CorpusTokenNfa(4, 1 << 14, 4)).num_classes(),
      4);
}

TEST(SymbolClassPartition, TrivialPartitionAndDegenerateFamily) {
  // DivisibilityNfa(7, 4): row (q, a) targets (4q+a) mod 7, distinct per
  // symbol — the computed partition must degenerate to C == |Σ|, with class
  // id == symbol id and every weight 1.
  const SymbolClassIndex computed =
      SymbolClassIndex::Compute(DivisibilityNfa(7, 4));
  EXPECT_TRUE(computed.trivial());
  EXPECT_EQ(computed.num_classes(), 4);
  for (int a = 0; a < 4; ++a) {
    EXPECT_EQ(computed.ClassOf(static_cast<Symbol>(a)), a);
    EXPECT_EQ(computed.Representative(a), static_cast<Symbol>(a));
    EXPECT_EQ(computed.Weight(a), 1);
  }
}

// Bit-identical expansion for every class member: Pred(P, member) must equal
// Pred(P, representative) for every frontier P the engine could pass, at
// every level — the invariant that makes the per-class rewrite exact rather
// than approximate.
TEST(SymbolClassPartition, MemberExpansionBitIdenticalAtEveryLevel) {
  const Nfa nfa = CorpusTokenNfa(3, 48, 3);
  const int n = 5;
  const UnrolledNfa unrolled(&nfa, n);
  const SymbolClassIndex& classes = unrolled.symbol_classes();
  ASSERT_LT(classes.num_classes(), nfa.alphabet_size());

  const size_t m = static_cast<size_t>(nfa.num_states());
  Rng rng(TestSeed(1611));
  for (int level = 1; level <= n; ++level) {
    // Frontiers: the full reachable set plus a few random subsets of it.
    std::vector<Bitset> frontiers;
    frontiers.push_back(unrolled.ReachableAt(level));
    for (int trial = 0; trial < 4; ++trial) {
      Bitset subset(m);
      for (size_t q = 0; q < m; ++q) {
        if (unrolled.ReachableAt(level).Test(q) && rng.Bernoulli(0.6)) {
          subset.Set(q);
        }
      }
      frontiers.push_back(std::move(subset));
    }
    for (const Bitset& frontier : frontiers) {
      for (int c = 0; c < classes.num_classes(); ++c) {
        const Symbol rep = classes.Representative(c);
        const Bitset rep_pred = unrolled.PredSet(frontier, rep, level);
        Bitset rep_succ(m);
        unrolled.SuccSetInto(frontier, rep, &rep_succ);
        for (int i = 1; i < classes.Weight(c); ++i) {
          const Symbol member = classes.Member(c, i);
          EXPECT_TRUE(rep_pred == unrolled.PredSet(frontier, member, level))
              << "level=" << level << " class=" << c << " member=" << member;
          Bitset member_succ(m);
          unrolled.SuccSetInto(frontier, member, &member_succ);
          EXPECT_TRUE(rep_succ == member_succ)
              << "level=" << level << " class=" << c << " member=" << member;
        }
      }
    }
  }
}

// Identity grid on a genuinely compressed family and on a trivially
// partitioned one (every row distinct, so every class is one symbol):
// estimates, per-(q,ℓ) tables, and draw streams must not move across
// num_threads × batch_width × descent-cache capacity. The baseline is a
// session at each input's first capacity (and the default width); the grid
// builds engines, since the width is engine-internal. On the compressed
// family a 4-entry budget is spent at once, so nearly every group's insert
// is refused and its step reads every class's sizes and rows from the walk
// arena. The trivial partition skips the uncached engine, whose capacity
// invariance test_descent_cache already pins on binary-alphabet families.
TEST(SymbolClasses, GridBitIdenticalAtFixedClassSetting) {
  struct Input {
    const char* name;
    Nfa nfa;
    uint64_t seed;
    std::vector<int64_t> capacities;
  };
  const int64_t kDefault = FprasParams::kDefaultDescentCacheCapacity;
  const Input inputs[] = {
      {"corpus", CorpusTokenNfa(3, 64, 3), TestSeed(1631), {0, 4, kDefault}},
      {"divisibility", DivisibilityNfa(7, 4), TestSeed(1621), {kDefault}}};
  const int n = 6;
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const Nfa& nfa = input.nfa;
    CountOptions base = SessionTestOptions(input.seed);
    base.descent_cache_capacity = input.capacities.front();
    base.num_threads = 1;
    Result<EngineSession> baseline = EngineSession::Create(nfa, n, base);
    ASSERT_TRUE(baseline.ok());
    std::vector<double> base_counts;
    for (int level = 0; level <= n; ++level) {
      Result<double> c = baseline->CountAtLength(level);
      ASSERT_TRUE(c.ok());
      base_counts.push_back(*c);
    }
    Result<std::vector<Word>> base_draws = baseline->SampleWords(n, 12);
    ASSERT_TRUE(base_draws.ok());

    for (int64_t capacity : input.capacities) {
      for (int threads : {1, 4}) {
        for (int width : {1, 32}) {
          CountOptions opts = SessionTestOptions(input.seed);
          opts.descent_cache_capacity = capacity;
          opts.num_threads = threads;
          std::unique_ptr<FprasEngine> engine =
              EngineAtWidth(nfa, n, opts, width);
          ASSERT_NE(engine, nullptr);
          ASSERT_TRUE(engine->RunToLevel(n).ok());
          for (int level = 0; level <= n; ++level) {
            EXPECT_EQ(engine->EstimateAtLength(level),
                      base_counts[static_cast<size_t>(level)])
                << "capacity=" << capacity << " threads=" << threads
                << " width=" << width << " level=" << level;
          }
          ExpectTablesIdentical(*engine, baseline->engine(), nfa, n);
          const std::vector<Word> draws = DrawWords(*engine, n, 12);
          ASSERT_EQ(draws.size(), base_draws->size());
          for (size_t i = 0; i < draws.size(); ++i) {
            EXPECT_EQ(draws[i], (*base_draws)[i])
                << "capacity=" << capacity << " threads=" << threads
                << " width=" << width << " draw=" << i;
          }
        }
      }
    }
  }
}

// Accuracy on the corpus-scale family: the estimate must land inside the
// envelope of the exact count at an alphabet far past what per-symbol loops
// could afford. Sampled words must be accepted and of the right length.
TEST(SymbolClasses, EnvelopeVsExactOnCorpusFamily) {
  const Nfa nfa = CorpusTokenNfa(4, 512, 4);
  const int n = 8;
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const double truth = exact->ToDouble();
  ASSERT_GT(truth, 0.0);

  Result<EngineSession> session =
      EngineSession::Create(nfa, n, SessionTestOptions(TestSeed(1641)));
  ASSERT_TRUE(session.ok());
  Result<double> estimate = session->CountAtLength(n);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate / truth, 1.0, 0.35);
  Result<std::vector<Word>> draws = session->SampleWords(n, 8);
  ASSERT_TRUE(draws.ok()) << draws.status().ToString();
  for (const Word& w : *draws) {
    ASSERT_EQ(static_cast<int>(w.size()), n);
    EXPECT_TRUE(nfa.Accepts(w));
  }
}

}  // namespace
}  // namespace nfacount
