// Thread-count invariance of the parallel level-sweep engine: with
// counter-based per-(q,ℓ) RNG substreams, the same (nfa, n, seed) must
// produce bit-identical estimates, per-(q,ℓ) tables, and sampler draws for
// every num_threads value — the thread knob may only change wall-clock time.
// Also covers the NFA_CHECK bounds enforcement on the table accessors and
// the Rng::ForSubstream determinism contract these guarantees rest on.

#include <gtest/gtest.h>

#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

CountOptions ThreadedOpts(uint64_t seed, int threads) {
  CountOptions o;
  o.eps = 0.3;
  o.delta = 0.2;
  o.seed = seed;
  o.num_threads = threads;
  return o;
}

// Full per-(q,ℓ) table equality: count estimates, sample words, and reach
// profiles must match bit-for-bit between two engines.
void ExpectTablesIdentical(FprasEngine& a, FprasEngine& b, const Nfa& nfa,
                           int n) {
  for (int level = 0; level <= n; ++level) {
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      EXPECT_EQ(a.CountEstimateFor(q, level), b.CountEstimateFor(q, level))
          << "q=" << q << " level=" << level;
      const auto& sa = a.SamplesFor(q, level);
      const auto& sb = b.SamplesFor(q, level);
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

TEST(Parallel, SubstreamIsPositionIndependent) {
  // ForSubstream(seed, a, b) depends only on its arguments — not on any
  // generator state — and distinct cells get distinct streams.
  Rng s1 = Rng::ForSubstream(42, 3, 5);
  Rng warm(7);
  for (int i = 0; i < 100; ++i) warm.NextU64();
  Rng s2 = Rng::ForSubstream(42, 3, 5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(s1.NextU64(), s2.NextU64());

  Rng other_cell = Rng::ForSubstream(42, 5, 3);    // swapped coordinates
  Rng other_seed = Rng::ForSubstream(43, 3, 5);
  Rng base = Rng::ForSubstream(42, 3, 5);
  EXPECT_NE(base.NextU64(), other_cell.NextU64());
  Rng base2 = Rng::ForSubstream(42, 3, 5);
  EXPECT_NE(base2.NextU64(), other_seed.NextU64());
}

TEST(Parallel, EstimateBitIdenticalAcrossThreadCounts) {
  Rng rng(TestSeed(301));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
    const int n = 6;
    Result<CountEstimate> one =
        ApproxCount(nfa, n, ThreadedOpts(TestSeed(302) + trial, 1));
    Result<CountEstimate> two =
        ApproxCount(nfa, n, ThreadedOpts(TestSeed(302) + trial, 2));
    Result<CountEstimate> eight =
        ApproxCount(nfa, n, ThreadedOpts(TestSeed(302) + trial, 8));
    ASSERT_TRUE(one.ok() && two.ok() && eight.ok());
    EXPECT_EQ(one->estimate, two->estimate) << "trial=" << trial;
    EXPECT_EQ(one->estimate, eight->estimate) << "trial=" << trial;
    // Deterministic (scheduling-independent) counters must also agree; the
    // cache hit/miss split and appunion_calls may legitimately differ.
    EXPECT_EQ(one->diagnostics.states_processed,
              eight->diagnostics.states_processed);
    EXPECT_EQ(one->diagnostics.sample_calls, eight->diagnostics.sample_calls);
    EXPECT_EQ(one->diagnostics.padded_words, eight->diagnostics.padded_words);
    EXPECT_EQ(one->diagnostics.perturbed_counts,
              eight->diagnostics.perturbed_counts);
  }
}

TEST(Parallel, TablesAndSamplesBitIdenticalAcrossThreadCounts) {
  Rng rng(TestSeed(311));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 6;
  Result<FprasParams> params =
      FprasParams::Make(Schedule::kFaster, nfa.num_states(), n, 0.35, 0.2,
                        Calibration::Practical());
  ASSERT_TRUE(params.ok());

  FprasParams p1 = *params;
  p1.num_threads = 1;
  FprasParams p8 = *params;
  p8.num_threads = 8;
  FprasEngine sequential(&nfa, p1, TestSeed(312));
  FprasEngine parallel(&nfa, p8, TestSeed(312));
  ASSERT_TRUE(sequential.Run().ok());
  ASSERT_TRUE(parallel.Run().ok());

  EXPECT_EQ(sequential.EstimateAtLength(n), parallel.EstimateAtLength(n));
  ExpectTablesIdentical(sequential, parallel, nfa, n);
  // Per-length slices and post-run draws ride on the same tables and the
  // same (content-keyed / post-run) streams: identical too.
  for (int level = 0; level <= n; ++level) {
    EXPECT_EQ(sequential.EstimateAtLength(level),
              parallel.EstimateAtLength(level))
        << "level=" << level;
  }
  for (int i = 0; i < 16; ++i) {
    std::vector<Word> a;  // one attempt each: a word or a rejection
    std::vector<Word> b;
    sequential.SampleAcceptedInto(n, 1, 1, &a);
    parallel.SampleAcceptedInto(n, 1, 1, &b);
    ASSERT_EQ(a.empty(), b.empty()) << "draw " << i;
    EXPECT_EQ(a, b) << "draw " << i;
  }
}

TEST(Parallel, SessionDrawsIdenticalAcrossThreadCounts) {
  Rng rng(TestSeed(321));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  CountOptions seq_opts;
  seq_opts.seed = TestSeed(322);
  CountOptions par_opts = seq_opts;
  par_opts.num_threads = 4;

  Result<EngineSession> a = EngineSession::Create(nfa, 6, seq_opts);
  Result<EngineSession> b = EngineSession::Create(nfa, 6, par_opts);
  ASSERT_TRUE(a.ok() && b.ok());
  Result<std::vector<Word>> wa = a->SampleWords(6, 10);
  Result<std::vector<Word>> wb = b->SampleWords(6, 10);
  ASSERT_TRUE(wa.ok() && wb.ok());
  EXPECT_EQ(a->CountAtLength(6).value(), b->CountAtLength(6).value());
  EXPECT_EQ(*wa, *wb);
}

TEST(Parallel, AllLengthsBitIdenticalAcrossThreadCounts) {
  Nfa nfa = ParityNfa(2);
  const int n = 7;
  Result<std::vector<double>> one =
      ApproxCountAllLengths(nfa, n, ThreadedOpts(TestSeed(341), 1));
  Result<std::vector<double>> eight =
      ApproxCountAllLengths(nfa, n, ThreadedOpts(TestSeed(341), 8));
  ASSERT_TRUE(one.ok() && eight.ok());
  for (int len = 0; len <= n; ++len) {
    EXPECT_EQ((*one)[len], (*eight)[len]) << "len=" << len;
  }
}

TEST(Parallel, AutoThreadCountAlsoIdentical) {
  // num_threads = 0 resolves to the hardware count; results must not move.
  Nfa nfa = SubstringNfa(Word{0, 1});
  Result<CountEstimate> one = ApproxCount(nfa, 7, ThreadedOpts(TestSeed(351), 1));
  Result<CountEstimate> automatic =
      ApproxCount(nfa, 7, ThreadedOpts(TestSeed(351), 0));
  ASSERT_TRUE(one.ok() && automatic.ok());
  EXPECT_EQ(one->estimate, automatic->estimate);
}

using ParallelDeathTest = ::testing::Test;

TEST(ParallelDeathTest, AccessorsBoundCheckLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(TestSeed(361));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), 4, 0.4, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, TestSeed(362));

  // Before Run(): every accessor must refuse, not read garbage.
  EXPECT_DEATH(engine.CountEstimateFor(0, 0), "NFA_CHECK failed");

  ASSERT_TRUE(engine.Run().ok());
  EXPECT_DEATH(engine.CountEstimateFor(0, 5), "level out of");
  EXPECT_DEATH(engine.CountEstimateFor(0, -1), "level out of");
  EXPECT_DEATH(engine.CountEstimateFor(99, 2), "state out of");
  EXPECT_DEATH(engine.SamplesFor(-1, 2), "state out of");
  EXPECT_DEATH(engine.SamplesFor(0, 17), "level out of");
  EXPECT_DEATH(engine.EstimateAtLength(-2), "level out of");
  EXPECT_DEATH(engine.EstimateAtLength(5), "level out of");
}

}  // namespace
}  // namespace nfacount
