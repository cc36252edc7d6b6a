// Tests for Algorithm 1 (AppUnion): trial-count formulas, estimator accuracy
// under exact and perturbed size estimates, overlap handling, starvation
// policies, and the fresh-draw Karp-Luby variant.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "counting/union_mc.hpp"
#include "test_seed.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

/// A pre-drawn sample with its membership profile: bit j set iff the value
/// lies in the set whose owner() is j (what AppUnionBatched reads through
/// the default ProfileWordsData, as it does a StoredSample's `.reach`).
struct ProfiledInt {
  int value;
  Bitset reach;
};

/// Test input: an explicit integer set with a pre-drawn uniform sample list.
/// owner(), universe() and the sample profiles are filled in by
/// AttachProfiles once every set of a call is known.
struct IntSetInput {
  std::set<int> elements;
  std::vector<ProfiledInt> samples;  // pre-drawn uniformly with replacement
  double reported_size;              // possibly perturbed estimate
  int owner_id = 0;
  size_t universe_bits = 1;

  double size_estimate() const { return reported_size; }
  int64_t num_samples() const { return static_cast<int64_t>(samples.size()); }
  const ProfiledInt& Sample(int64_t i) const {
    return samples[static_cast<size_t>(i)];
  }
  bool Contains(const ProfiledInt& x) const {
    return elements.count(x.value) > 0;
  }
  int owner() const { return owner_id; }
  size_t universe() const { return universe_bits; }
};

IntSetInput MakeInput(std::set<int> elements, int64_t num_samples, Rng& rng,
                      double size_factor = 1.0) {
  IntSetInput input;
  input.elements = std::move(elements);
  std::vector<int> pool(input.elements.begin(), input.elements.end());
  for (int64_t i = 0; i < num_samples; ++i) {
    input.samples.push_back({pool[rng.UniformU64(pool.size())], Bitset()});
  }
  input.reported_size = static_cast<double>(input.elements.size()) * size_factor;
  return input;
}

/// Gives input i owner id `owners[i]` over a universe of `universe` ids and
/// profiles every sample against all the inputs' sets.
void AttachProfiles(std::vector<IntSetInput>& inputs,
                    const std::vector<int>& owners, size_t universe) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i].owner_id = owners[i];
    inputs[i].universe_bits = universe;
  }
  for (auto& in : inputs) {
    for (auto& sample : in.samples) {
      sample.reach = Bitset(universe);
      for (const auto& other : inputs) {
        if (other.Contains(sample)) sample.reach.Set(other.owner_id);
      }
    }
  }
}

double TrueUnionSize(const std::vector<IntSetInput>& inputs) {
  std::set<int> u;
  for (const auto& in : inputs) u.insert(in.elements.begin(), in.elements.end());
  return static_cast<double>(u.size());
}

AppUnionOutcome RunAppUnion(const std::vector<IntSetInput>& inputs,
                            const AppUnionParams& params, Rng& rng) {
  std::vector<const IntSetInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  return AppUnion(ptrs, params, rng);
}

TEST(TrialCount, MatchesFormula) {
  AppUnionParams p;
  p.eps = 0.5;
  p.delta = 0.25;
  p.eps_sz = 0.0;
  p.min_trials = 1;
  // m̄ = ceil(10/4) = 3; t = ceil(12·3/0.25·ln(16)).
  int64_t t = AppUnionTrialCount(p, /*sum_sz=*/10.0, /*max_sz=*/4.0);
  EXPECT_EQ(t, static_cast<int64_t>(std::ceil(12.0 * 3 / 0.25 * std::log(16.0))));
}

TEST(TrialCount, ScaleAndFloors) {
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.trial_scale = 1e-9;
  p.min_trials = 77;
  EXPECT_EQ(AppUnionTrialCount(p, 10, 10), 77);
  p.min_trials = 1;
  p.max_trials = 1000;
  p.trial_scale = 1e12;
  EXPECT_EQ(AppUnionTrialCount(p, 10, 10), 1000);
}

TEST(Thresh, MatchesTheoremFormula) {
  AppUnionParams p;
  p.eps = 0.5;
  p.delta = 0.2;
  p.eps_sz = 0.1;
  double expect = 24.0 * 1.1 * 1.1 / 0.25 * std::log(4.0 * 3 / 0.2);
  EXPECT_NEAR(AppUnionThresh(p, 3), expect, 1e-9);
}

TEST(AppUnion, EmptyInputsGiveZero) {
  Rng rng(TestSeed(1));
  std::vector<IntSetInput> inputs;
  AppUnionParams p;
  EXPECT_EQ(RunAppUnion(inputs, p, rng).estimate, 0.0);
  // All-zero size estimates: union is (estimated) empty.
  inputs.push_back(IntSetInput{{}, {}, 0.0});
  EXPECT_EQ(RunAppUnion(inputs, p, rng).estimate, 0.0);
}

TEST(AppUnion, SingleSetIsItsSize) {
  Rng rng(TestSeed(2));
  std::set<int> s;
  for (int i = 0; i < 100; ++i) s.insert(i);
  std::vector<IntSetInput> inputs = {MakeInput(s, 4096, rng)};
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  // Every sampled pair is in U_unique for a single set: estimate == sum_sz.
  EXPECT_DOUBLE_EQ(out.estimate, 100.0);
  EXPECT_EQ(out.hits, out.completed_trials);
}

class AppUnionAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(AppUnionAccuracy, DisjointSetsSumUp) {
  Rng rng(GetParam());
  std::vector<IntSetInput> inputs;
  int base = 0;
  double total = 0;
  for (int i = 0; i < 4; ++i) {
    std::set<int> s;
    int size = 20 * (i + 1);
    for (int x = 0; x < size; ++x) s.insert(base + x);
    base += 1000;
    total += size;
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / total, 1.0, 0.15);
}

TEST_P(AppUnionAccuracy, HeavyOverlapIsNotOvercounted) {
  Rng rng(GetParam() + 100);
  // Four sets that are 90% shared: naive summing overcounts ~3.4x.
  std::set<int> shared;
  for (int x = 0; x < 90; ++x) shared.insert(x);
  std::vector<IntSetInput> inputs;
  for (int i = 0; i < 4; ++i) {
    std::set<int> s = shared;
    for (int x = 0; x < 10; ++x) s.insert(1000 + 10 * i + x);
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  const double truth = TrueUnionSize(inputs);  // 90 + 40 = 130
  ASSERT_EQ(truth, 130.0);
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / truth, 1.0, 0.15);
}

TEST_P(AppUnionAccuracy, NestedSetsCollapseToLargest) {
  Rng rng(GetParam() + 200);
  // T1 ⊂ T2 ⊂ T3: union = T3.
  std::vector<IntSetInput> inputs;
  for (int size : {25, 50, 100}) {
    std::set<int> s;
    for (int x = 0; x < size; ++x) s.insert(x);
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / 100.0, 1.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppUnionAccuracy, ::testing::Range(1, 6));

TEST(AppUnion, ToleratesPerturbedSizeEstimates) {
  // Size estimates off by (1±ε_sz) still give (1+ε)(1+ε_sz) accuracy
  // (Theorem 1). Perturb sizes by ±20% and pass eps_sz = 0.2.
  Rng rng(TestSeed(42));
  std::vector<IntSetInput> inputs;
  inputs.push_back(MakeInput([] {
                     std::set<int> s;
                     for (int x = 0; x < 80; ++x) s.insert(x);
                     return s;
                   }(),
                   8192, rng, /*size_factor=*/1.2));
  inputs.push_back(MakeInput([] {
                     std::set<int> s;
                     for (int x = 40; x < 140; ++x) s.insert(x);
                     return s;
                   }(),
                   8192, rng, /*size_factor=*/0.8333));
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  p.eps_sz = 0.2;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  const double truth = 140.0;
  // Combined guarantee: within (1+0.15)(1+0.2) multiplicative.
  EXPECT_GT(out.estimate, truth / (1.15 * 1.2) * 0.9);
  EXPECT_LT(out.estimate, truth * 1.15 * 1.2 * 1.1);
}

TEST(AppUnion, StarvationBreakUndercounts) {
  // Tiny sample lists + kBreak: the Y/t estimate collapses (the failure mode
  // the paper's thresh bound protects against; see union_mc.hpp).
  Rng rng(TestSeed(7));
  std::set<int> s;
  for (int x = 0; x < 50; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, /*num_samples=*/5, rng)};
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.starvation = StarvationPolicy::kBreak;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_TRUE(out.starved);
  EXPECT_LT(out.estimate, 50.0 * 0.5);
}

TEST(AppUnion, StarvationRecycleStaysAccurate) {
  Rng rng(TestSeed(8));
  std::set<int> s;
  for (int x = 0; x < 50; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, /*num_samples=*/64, rng)};
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.starvation = StarvationPolicy::kRecycle;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_TRUE(out.starved);  // the event is still reported
  EXPECT_DOUBLE_EQ(out.estimate, 50.0);
}

TEST(AppUnion, MembershipChecksOnlyAgainstEarlierSets) {
  Rng rng(TestSeed(10));
  std::vector<IntSetInput> inputs;
  std::set<int> s = {1, 2, 3};
  inputs.push_back(MakeInput(s, 4096, rng));
  inputs.push_back(MakeInput(s, 4096, rng));
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  // Identical sets: union = 3. Checks happen only for draws from input 1.
  EXPECT_NEAR(out.estimate, 3.0, 0.8);
  EXPECT_GT(out.membership_checks, 0);
  EXPECT_LT(out.membership_checks, out.trials);  // never 2 checks per trial
}

/// Fresh-draw input for the classic variant.
struct DrawInput {
  std::set<int> elements;
  double size_estimate() const { return static_cast<double>(elements.size()); }
  int Draw(Rng& rng) const {
    std::vector<int> pool(elements.begin(), elements.end());
    return pool[rng.UniformU64(pool.size())];
  }
  bool Contains(const int& x) const { return elements.count(x) > 0; }
};

TEST(AppUnionResample, ClassicKarpLubyAccurate) {
  Rng rng(TestSeed(11));
  std::vector<DrawInput> inputs;
  std::set<int> a, b, c;
  for (int x = 0; x < 60; ++x) a.insert(x);
  for (int x = 30; x < 90; ++x) b.insert(x);
  for (int x = 60; x < 150; ++x) c.insert(x);
  inputs.push_back(DrawInput{a});
  inputs.push_back(DrawInput{b});
  inputs.push_back(DrawInput{c});
  std::vector<const DrawInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.05;
  AppUnionOutcome out = AppUnionResample(ptrs, p, rng);
  EXPECT_NEAR(out.estimate / 150.0, 1.0, 0.1);
}

TEST(AppUnion, DeterministicUnderSeed) {
  Rng build(12);
  std::set<int> s;
  for (int x = 0; x < 40; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, 2048, build)};
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.2;
  Rng r1(77), r2(77);
  EXPECT_DOUBLE_EQ(RunAppUnion(inputs, p, r1).estimate,
                   RunAppUnion(inputs, p, r2).estimate);
}

// ---------------------------------------------------------------------------
// AppUnionBatched: the same estimator and RNG stream as AppUnion
// ---------------------------------------------------------------------------

/// Runs AppUnion and AppUnionBatched from equal seeds and requires the same
/// outcome (membership_checks aside: AppUnion counts probes until the first
/// hit, AppUnionBatched all i answered per trial) and the same generator
/// state afterwards. Returns AppUnion's outcome.
AppUnionOutcome ExpectBatchedMatchesAppUnion(
    const std::vector<IntSetInput>& inputs, const AppUnionParams& params,
    uint64_t seed) {
  std::vector<const IntSetInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  Rng r1(seed), r2(seed);
  const AppUnionOutcome plain = AppUnion(ptrs, params, r1);
  AppUnionScratch scratch;
  const AppUnionOutcome batched = AppUnionBatched(ptrs, params, scratch, r2);
  EXPECT_EQ(plain.estimate, batched.estimate);
  EXPECT_EQ(plain.hits, batched.hits);
  EXPECT_EQ(plain.trials, batched.trials);
  EXPECT_EQ(plain.completed_trials, batched.completed_trials);
  EXPECT_EQ(plain.starved, batched.starved);
  EXPECT_EQ(r1.NextU64(), r2.NextU64()) << "generators diverged";
  return plain;
}

/// Five overlapping sets of uneven size, owned by non-contiguous ids in a
/// 70-bit universe (profiles span two words), with `num_samples` each.
std::vector<IntSetInput> OverlappingInputs(int64_t num_samples, Rng& rng) {
  std::vector<IntSetInput> inputs;
  for (int i = 0; i < 5; ++i) {
    std::set<int> s;
    for (int x = 10 * i; x < 10 * i + 15 + 7 * i; ++x) s.insert(x);
    inputs.push_back(MakeInput(std::move(s), num_samples, rng));
  }
  AttachProfiles(inputs, {3, 0, 64, 17, 69}, 70);
  return inputs;
}

class BatchedEqualsAppUnion
    : public ::testing::TestWithParam<StarvationPolicy> {};

TEST_P(BatchedEqualsAppUnion, WithoutStarvation) {
  Rng build(TestSeed(13));
  const std::vector<IntSetInput> inputs = OverlappingInputs(8192, build);
  AppUnionParams p;
  p.eps = 0.3;
  p.delta = 0.2;
  p.starvation = GetParam();
  for (uint64_t seed : {1, 2, 3}) {
    const AppUnionOutcome out =
        ExpectBatchedMatchesAppUnion(inputs, p, TestSeed(seed));
    EXPECT_FALSE(out.starved);
  }
}

TEST_P(BatchedEqualsAppUnion, WithStarvation) {
  Rng build(TestSeed(14));
  const std::vector<IntSetInput> inputs = OverlappingInputs(12, build);
  AppUnionParams p;
  p.eps = 0.3;
  p.delta = 0.2;
  p.starvation = GetParam();
  for (uint64_t seed : {4, 5, 6}) {
    const AppUnionOutcome out =
        ExpectBatchedMatchesAppUnion(inputs, p, TestSeed(seed));
    EXPECT_TRUE(out.starved);
  }
}

TEST_P(BatchedEqualsAppUnion, ZeroSizeAndEmptyInputs) {
  // A zero-size input is never drawn; an input with no samples starves on
  // its first draw (and cannot recycle).
  Rng build(TestSeed(15));
  std::vector<IntSetInput> inputs = OverlappingInputs(256, build);
  inputs[1].reported_size = 0.0;
  inputs[3].samples.clear();
  AppUnionParams p;
  p.eps = 0.3;
  p.delta = 0.2;
  p.starvation = GetParam();
  EXPECT_TRUE(ExpectBatchedMatchesAppUnion(inputs, p, TestSeed(16)).starved);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BatchedEqualsAppUnion,
    ::testing::Values(StarvationPolicy::kBreak, StarvationPolicy::kRecycle),
    [](const ::testing::TestParamInfo<StarvationPolicy>& info) {
      switch (info.param) {
        case StarvationPolicy::kBreak: return "Break";
        case StarvationPolicy::kRecycle: return "Recycle";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace nfacount
