// Unit tests for the dynamic bitset, including the word-boundary edge cases
// (sizes 63/64/65) the state-set operations rely on, and a per-bit naive
// check of every word-loop operation at 1 to 18 words.

#include <gtest/gtest.h>

#include <unordered_set>

#include "test_seed.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

TEST(Bitset, EmptyDefault) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.FirstSet(), -1);
}

TEST(Bitset, SetTestReset) {
  Bitset b(10);
  EXPECT_FALSE(b.Test(3));
  b.Set(3);
  EXPECT_TRUE(b.Test(3));
  EXPECT_TRUE(b.Any());
  b.Reset(3);
  EXPECT_FALSE(b.Test(3));
  EXPECT_TRUE(b.None());
}

class BitsetSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitsetSizeTest, SetAllCountsExactlySize) {
  Bitset b(GetParam());
  b.SetAll();
  EXPECT_EQ(b.Count(), GetParam());
  // No stray bits: clearing every valid index empties it.
  for (size_t i = 0; i < GetParam(); ++i) b.Reset(i);
  EXPECT_TRUE(b.None());
}

TEST_P(BitsetSizeTest, LastBitWorks) {
  size_t size = GetParam();
  if (size == 0) return;
  Bitset b(size);
  b.Set(size - 1);
  EXPECT_TRUE(b.Test(size - 1));
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_EQ(b.FirstSet(), static_cast<int>(size - 1));
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitsetSizeTest,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129, 200));

TEST(Bitset, FromIndicesAndToIndicesRoundTrip) {
  std::vector<int> indices = {0, 5, 63, 64, 99};
  Bitset b = Bitset::FromIndices(100, indices);
  EXPECT_EQ(b.ToIndices(), indices);
  EXPECT_EQ(b.Count(), indices.size());
}

TEST(Bitset, IntersectsAndSubset) {
  Bitset a = Bitset::FromIndices(70, {1, 65});
  Bitset b = Bitset::FromIndices(70, {65});
  Bitset c = Bitset::FromIndices(70, {2, 3});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(Bitset(70).IsSubsetOf(b));  // empty set is a subset of anything
}

TEST(Bitset, OrAndOperators) {
  Bitset a = Bitset::FromIndices(80, {1, 70});
  Bitset b = Bitset::FromIndices(80, {2, 70});
  Bitset o = a;
  o |= b;
  EXPECT_EQ(o.ToIndices(), (std::vector<int>{1, 2, 70}));
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.ToIndices(), (std::vector<int>{70}));
}

TEST(Bitset, EqualityIncludesSize) {
  Bitset a(64), b(65);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a != b);
  Bitset c(64);
  EXPECT_TRUE(a == c);
  c.Set(0);
  EXPECT_FALSE(a == c);
}

TEST(Bitset, ForEachSetAscending) {
  Bitset b = Bitset::FromIndices(130, {129, 0, 64, 63});
  std::vector<int> seen;
  b.ForEachSet([&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 129}));
}

TEST(Bitset, ClearResetsEverything) {
  Bitset b = Bitset::FromIndices(100, {1, 99});
  b.Clear();
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.size(), 100u);  // size preserved
}

TEST(Bitset, ToStringFormat) {
  EXPECT_EQ(Bitset::FromIndices(10, {1, 3}).ToString(), "{1,3}");
  EXPECT_EQ(Bitset(10).ToString(), "{}");
}

TEST(Bitset, HashDistinguishesContentAndWorksInMaps) {
  std::unordered_set<Bitset, BitsetHash> set;
  for (int i = 0; i < 50; ++i) {
    set.insert(Bitset::FromIndices(64, {i}));
  }
  EXPECT_EQ(set.size(), 50u);
  // Reinserting a duplicate does not grow the set.
  set.insert(Bitset::FromIndices(64, {7}));
  EXPECT_EQ(set.size(), 50u);
}

TEST(Bitset, HashDependsOnSize) {
  Bitset a(64), b(128);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(Bitset, FirstSetScansAcrossWords) {
  Bitset b(200);
  b.Set(150);
  EXPECT_EQ(b.FirstSet(), 150);
  b.Set(20);
  EXPECT_EQ(b.FirstSet(), 20);
}

Bitset RandomBitset(size_t bits, double p, Rng& rng) {
  Bitset b(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(p)) b.Set(i);
  }
  return b;
}

TEST(Bitset, WordOperationsMatchPerBitNaive) {
  Rng rng(testing_support::TestSeed(601));
  for (size_t bits : {1, 63, 64, 65, 128, 193, 256, 257, 1100}) {
    SCOPED_TRACE(::testing::Message() << "bits=" << bits);
    for (double p : {0.02, 0.5}) {
      const Bitset a = RandomBitset(bits, p, rng);
      const Bitset b = RandomBitset(bits, p, rng);
      const Bitset mask = RandomBitset(bits, 0.5, rng);
      Bitset want_or(bits), want_and(bits), want_andnot(bits);
      Bitset want_masked(bits);
      size_t want_count = 0;
      bool want_intersects = false;
      for (size_t i = 0; i < bits; ++i) {
        const bool x = a.Test(i), y = b.Test(i);
        if (x || y) want_or.Set(i);
        if (x && y) want_and.Set(i);
        if (x && !y) want_andnot.Set(i);
        if (x || (y && mask.Test(i))) want_masked.Set(i);
        want_count += x ? 1 : 0;
        want_intersects = want_intersects || (x && y);
      }
      Bitset got = a;
      got |= b;
      EXPECT_EQ(got, want_or);
      got = a;
      got &= b;
      EXPECT_EQ(got, want_and);
      got = a;
      got.AndNot(b);
      EXPECT_EQ(got, want_andnot);
      got = a;
      got.OrMasked(b, mask);
      EXPECT_EQ(got, want_masked);
      EXPECT_EQ(a.Count(), want_count);
      EXPECT_EQ(a.Intersects(b), want_intersects);
    }
  }
}

TEST(Bitset, IntersectsFindsSingleSharedBit) {
  // Random sets rarely hit the one-shared-bit case: plant exactly one shared
  // bit at every position of a 9-word span.
  const size_t bits = 9 * 64;
  for (size_t bit = 0; bit < bits; ++bit) {
    Bitset a(bits), b(bits);
    a.Set(bit);
    b.Set(bit);
    EXPECT_TRUE(a.Intersects(b)) << bit;
    b.Reset(bit);
    EXPECT_FALSE(a.Intersects(b)) << bit;
  }
}

}  // namespace
}  // namespace nfacount
