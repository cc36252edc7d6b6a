// Tests for the unrolled-automaton view: level reachability, predecessor
// expansion (the self-reducible-union decomposition of the paper), witness
// extraction, and the amortized membership oracle.

#include <gtest/gtest.h>

#include <set>

#include "automata/generators.hpp"
#include "automata/unrolled.hpp"
#include "counting/exact.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

TEST(Unrolled, Level0IsInitialOnly) {
  Rng rng(TestSeed(1));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 5);
  EXPECT_EQ(unr.ReachableAt(0).ToIndices(),
            std::vector<int>{static_cast<int>(nfa.initial())});
}

TEST(Unrolled, ReachabilityMatchesEnumeration) {
  Rng rng(TestSeed(2));
  for (int trial = 0; trial < 6; ++trial) {
    Nfa nfa = RandomNfa(6, 0.25, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        Result<std::vector<Word>> words = EnumerateStateLevel(nfa, q, level);
        ASSERT_TRUE(words.ok());
        EXPECT_EQ(unr.IsReachable(q, level), !words->empty())
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

TEST(Unrolled, PredSetDecompositionIdentity) {
  // The self-reducible union property behind the whole algorithm:
  // L(q^ℓ) = ⊎_b L(Pred(q,b)^{ℓ-1})·b. Verify exact counts both sides.
  Rng rng(TestSeed(3));
  for (int trial = 0; trial < 5; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);
    Result<SubsetDp> dp = SubsetDp::Run(nfa, n);
    ASSERT_TRUE(dp.ok());
    for (int level = 1; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        if (!unr.IsReachable(q, level)) continue;
        Bitset singleton(nfa.num_states());
        singleton.Set(q);
        // Count words in L(q^ℓ) ending with b = words of L(P_b^{ℓ-1}) where
        // P_b = PredSet(q, b). The per-b sets are computed by enumeration.
        size_t total = 0;
        for (int b = 0; b < 2; ++b) {
          Bitset preds = unr.PredSet(singleton, static_cast<Symbol>(b), level);
          // |∪_{p∈preds} L(p^{ℓ-1})| by brute-force de-dup.
          std::set<Word> prefix_union;
          preds.ForEachSet([&](int p) {
            Result<std::vector<Word>> words =
                EnumerateStateLevel(nfa, p, level - 1);
            ASSERT_TRUE(words.ok());
            prefix_union.insert(words->begin(), words->end());
          });
          total += prefix_union.size();
        }
        EXPECT_EQ(BigUint(total), dp->StateLevelCount(q, level))
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

TEST(Unrolled, WitnessWordIsInStateLanguage) {
  Rng rng(TestSeed(4));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(7, 0.25, 0.3, rng);
    const int n = 7;
    UnrolledNfa unr(&nfa, n);
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        std::optional<Word> w = unr.WitnessWord(q, level);
        EXPECT_EQ(w.has_value(), unr.IsReachable(q, level));
        if (w.has_value()) {
          EXPECT_EQ(static_cast<int>(w->size()), level);
          EXPECT_TRUE(nfa.Reach(*w).Test(q))
              << "witness " << WordToString(*w) << " not in L(" << q << "^"
              << level << ")";
        }
      }
    }
  }
}

TEST(Unrolled, WitnessWordIsDeterministic) {
  Rng rng(TestSeed(5));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  UnrolledNfa a(&nfa, 6), b(&nfa, 6);
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    EXPECT_EQ(a.WitnessWord(q, 6), b.WitnessWord(q, 6));
  }
}

TEST(Unrolled, MakeSampleReachProfileMatchesSlowOracle) {
  Rng rng(TestSeed(6));
  Nfa nfa = RandomNfa(8, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 6);
  Rng words_rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Word w;
    for (int i = 0; i < 6; ++i) {
      w.push_back(static_cast<Symbol>(words_rng.UniformU64(2)));
    }
    StoredSample sample = unr.MakeSample(w);
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      EXPECT_EQ(sample.reach.Test(q), nfa.Reach(w).Test(q));
    }
  }
}

TEST(Unrolled, EmptyWordSample) {
  Nfa nfa = ParityNfa(2);
  UnrolledNfa unr(&nfa, 3);
  StoredSample s = unr.MakeSample(Word{});
  EXPECT_TRUE(s.reach.Test(nfa.initial()));
  EXPECT_EQ(s.reach.Count(), 1u);
}

TEST(Unrolled, PredSetRespectsLevelReachability) {
  // Build an NFA where state 2 is reachable only at even levels.
  Nfa nfa(2);
  nfa.AddStates(2);
  nfa.SetInitial(0);
  nfa.AddAccepting(1);
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 0, 0);
  UnrolledNfa unr(&nfa, 4);
  // State 0 reachable at even levels, state 1 at odd.
  EXPECT_TRUE(unr.IsReachable(0, 0));
  EXPECT_FALSE(unr.IsReachable(1, 0));
  EXPECT_TRUE(unr.IsReachable(1, 1));
  EXPECT_FALSE(unr.IsReachable(0, 1));
  EXPECT_TRUE(unr.IsReachable(0, 2));

  Bitset target(2);
  target.Set(1);
  // Pred(1, 0) = {0}; at level 1 the previous level is 0 where only state 0
  // lives — fine. At level 2, state 0 is NOT reachable at level 1, so empty.
  EXPECT_EQ(unr.PredSet(target, 0, 1).ToIndices(), std::vector<int>{0});
  EXPECT_TRUE(unr.PredSet(target, 0, 2).None());
}

TEST(Unrolled, NZeroOnlyLevelZero) {
  Nfa nfa = DenseCompleteNfa(3);
  UnrolledNfa unr(&nfa, 0);
  EXPECT_EQ(unr.n(), 0);
  EXPECT_TRUE(unr.IsReachable(nfa.initial(), 0));
}

}  // namespace
}  // namespace nfacount
