// Unit and statistical tests for the PRNG suite. Statistical bounds are set
// for negligible flake probability (many sigma).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace nfacount {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, ZeroSeedIsFine) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.NextU64());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
}

TEST(Rng, UniformU64BoundOneAlwaysZero) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.UniformU64(1), 0u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(21);
  const int buckets = 10;
  const int trials = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformU64(buckets)];
  // Expected 10000 per bucket, sigma ~ 95; allow 8 sigma.
  for (int c : counts) EXPECT_NEAR(c, trials / buckets, 800);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);  // ~10 sigma
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.015);
}

TEST(Rng, DiscreteIndexMatchesWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    int idx = rng.DiscreteIndex(weights);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 4);
    ++counts[idx];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, weights[i] / 10.0, 0.02);
  }
}

TEST(Rng, DiscreteIndexSkipsZeroWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 500; ++i) EXPECT_EQ(rng.DiscreteIndex(weights), 1);
}

TEST(Rng, DiscreteIndexAllZeroReturnsMinusOne) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.DiscreteIndex(weights), -1);
  EXPECT_EQ(rng.DiscreteIndex({}), -1);
}

// ---------------------------------------------------------------------------
// DiscreteTable: the same index as DiscreteIndex from the same generator state
// ---------------------------------------------------------------------------

/// DiscreteIndex's selection by binary search over its left-to-right
/// partial sums: one UniformDouble u, the first prefix sum above u·total,
/// else the last positive weight. DiscreteIndex re-sums all k weights per
/// call, so long vectors are checked against this rule past a work budget.
int SearchIndex(const std::vector<double>& prefix,
                const std::vector<double>& weights, Rng& rng) {
  const double total = prefix.empty() ? 0.0 : prefix.back();
  if (!(total > 0.0)) return -1;
  const double u = rng.UniformDouble() * total;
  auto it = std::upper_bound(prefix.begin(), prefix.end(), u);
  if (it != prefix.end()) return static_cast<int>(it - prefix.begin());
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int>(i);
  }
  return -1;
}

/// Draws `draws` indices through `table` (built from `weights`) and through
/// the reference from equal seeds: every index must agree, and the two
/// generators must end in the same state.
void ExpectSameSelections(const DiscreteTable& table,
                          const std::vector<double>& weights, uint64_t seed,
                          int draws = 100000) {
  std::vector<double> prefix;
  double acc = 0.0;
  for (double w : weights) prefix.push_back(acc += w);
  // Up to ~2e7 weight visits against DiscreteIndex itself, the rest (only
  // k > 200 needs it) against the same rule by binary search.
  const int64_t k = static_cast<int64_t>(std::max<size_t>(weights.size(), 1));
  const int64_t scan_draws = std::min<int64_t>(draws, 20000000 / k);
  Rng a(seed), b(seed);
  for (int d = 0; d < draws; ++d) {
    const int got = table.Draw(a);
    const int want = d < scan_draws ? b.DiscreteIndex(weights)
                                    : SearchIndex(prefix, weights, b);
    ASSERT_EQ(got, want) << "draw " << d << " of k = " << weights.size();
  }
  EXPECT_EQ(a.NextU64(), b.NextU64()) << "generators diverged";
}

void ExpectTableMatchesDiscreteIndex(const std::vector<double>& weights,
                                     uint64_t seed) {
  DiscreteTable table;
  table.Rebuild(weights);
  ExpectSameSelections(table, weights, seed);
}

std::vector<double> RandomWeights(size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(k);
  for (double& x : w) {
    // A spread of magnitudes with some exact zeros.
    x = rng.Bernoulli(0.1)
            ? 0.0
            : std::ldexp(rng.UniformDouble(),
                         static_cast<int>(rng.UniformInt(-8, 8)));
  }
  return w;
}

TEST(DiscreteTable, SmallK) {
  ExpectTableMatchesDiscreteIndex({2.5}, 41);
  ExpectTableMatchesDiscreteIndex({1.0, 3.0}, 42);
  ExpectTableMatchesDiscreteIndex({0.1, 0.7, 0.2}, 43);
}

TEST(DiscreteTable, RandomWeightsK97) {
  ExpectTableMatchesDiscreteIndex(RandomWeights(97, 44), 45);
}

TEST(DiscreteTable, KAboveTheGuideCap) {
  // 70,000 > 2^16 / 2: the guide stops at 2^16 buckets and the scan runs
  // longer than one step on average.
  ExpectTableMatchesDiscreteIndex(RandomWeights(70000, 46), 47);
}

TEST(DiscreteTable, LeadingTrailingAndInteriorZeros) {
  ExpectTableMatchesDiscreteIndex({0, 0, 1, 0, 2, 0, 0, 3, 0, 0}, 48);
  ExpectTableMatchesDiscreteIndex({0, 0, 0, 5}, 49);
  ExpectTableMatchesDiscreteIndex({5, 0, 0, 0}, 50);
}

TEST(DiscreteTable, WeightAbsorbedByTheRunningSum) {
  // 1 + 1e-300 == 1: the last weight leaves no prefix increase.
  ExpectTableMatchesDiscreteIndex({1.0, 1e-300}, 51);
  ExpectTableMatchesDiscreteIndex({1e-300, 1.0, 1e-300}, 52);
}

TEST(DiscreteTable, OneWeightHoldsAlmostAllTheMass) {
  ExpectTableMatchesDiscreteIndex(
      {2.5e-13, 2.5e-13, 1.0 - 1e-12, 2.5e-13, 2.5e-13}, 53);
}

TEST(DiscreteTable, EqualWeightsPutBucketEdgesOnPrefixSums) {
  // k = 64 ones: 128 buckets over a total of 64, so every even bucket's
  // smallest u is exactly a prefix sum.
  ExpectTableMatchesDiscreteIndex(std::vector<double>(64, 1.0), 54);
  ExpectTableMatchesDiscreteIndex(std::vector<double>(8, 0.125), 55);
  ExpectTableMatchesDiscreteIndex(std::vector<double>(3, 1.0), 56);
}

TEST(DiscreteTable, OverflowingTotalTakesTheFallback) {
  // The total overflows to +inf, so u is inf (or NaN at r = 0) and both sides
  // fall back to the last positive weight — index 2, which the running sum
  // absorbed.
  const double big = std::numeric_limits<double>::max();
  ExpectTableMatchesDiscreteIndex({big, big, 1e-300, 0.0}, 57);
  DiscreteTable table;
  table.Rebuild({big, big, 1e-300, 0.0});
  Rng rng(58);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Draw(rng), 2);
}

TEST(DiscreteTable, AllZeroAndEmptyReturnMinusOne) {
  ExpectTableMatchesDiscreteIndex({0.0, 0.0, 0.0}, 59);
  ExpectTableMatchesDiscreteIndex({}, 60);
  DiscreteTable table;
  table.Rebuild({});
  EXPECT_FALSE(table.valid());
  Rng rng(61);
  EXPECT_EQ(table.Draw(rng), -1);
}

TEST(DiscreteTable, RebuildOverGrowingAndShrinkingK) {
  DiscreteTable table;
  uint64_t seed = 62;
  for (size_t k : {1, 3, 97, 70000, 97, 3, 1}) {
    const std::vector<double> weights = RandomWeights(k, seed);
    table.Rebuild(weights);
    ExpectSameSelections(table, weights, seed++);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StdShuffleInterface) {
  Rng rng(37);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);  // a permutation
}

}  // namespace
}  // namespace nfacount
