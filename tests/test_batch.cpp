// Batch-width invariance of the lockstep sampling plane: because every
// candidate walk draws from its own attempt-indexed RNG substream, the same
// (nfa, n, seed) must produce bit-identical estimates, per-(q,ℓ) tables, and
// post-run draw sequences for every batch_width — and for the SIMD vs scalar
// kernel tables, whose operations compute identical bits by construction.
// Also covers the arena reuse contract (no per-sample allocations once the
// slabs are warm) and the batch_width validation surface.

#include <gtest/gtest.h>

#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nfacount {
namespace {

using testing_support::ExpectTablesIdentical;
using testing_support::ScopedForceScalar;
using testing_support::TestSeed;

CountOptions BatchOpts(uint64_t seed, int batch_width) {
  CountOptions o;
  o.eps = 0.3;
  o.delta = 0.2;
  o.seed = seed;
  o.batch_width = batch_width;
  return o;
}

TEST(Batch, EstimateBitIdenticalAcrossBatchWidths) {
  Rng rng(TestSeed(701));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
    const int n = 6;
    const uint64_t seed = TestSeed(702) + trial;
    Result<CountEstimate> narrow = ApproxCount(nfa, n, BatchOpts(seed, 1));
    Result<CountEstimate> medium = ApproxCount(nfa, n, BatchOpts(seed, 4));
    Result<CountEstimate> wide = ApproxCount(nfa, n, BatchOpts(seed, 16));
    ASSERT_TRUE(narrow.ok() && medium.ok() && wide.ok());
    EXPECT_EQ(narrow->estimate, medium->estimate) << "trial=" << trial;
    EXPECT_EQ(narrow->estimate, wide->estimate) << "trial=" << trial;
    // Every deterministic counter must agree — including the per-walk
    // attempt counters (sample_calls, fail_*): the engine consumes outcomes
    // exactly up to the attempt that fills each sample set, so speculative
    // lockstep surplus never leaks into the diagnostics at any width.
    for (const CountEstimate* other : {&*medium, &*wide}) {
      EXPECT_EQ(narrow->diagnostics.states_processed,
                other->diagnostics.states_processed);
      EXPECT_EQ(narrow->diagnostics.padded_words,
                other->diagnostics.padded_words);
      EXPECT_EQ(narrow->diagnostics.perturbed_counts,
                other->diagnostics.perturbed_counts);
      EXPECT_EQ(narrow->diagnostics.sample_calls,
                other->diagnostics.sample_calls);
      EXPECT_EQ(narrow->diagnostics.sample_success,
                other->diagnostics.sample_success);
      EXPECT_EQ(narrow->diagnostics.fail_phi_gt_1,
                other->diagnostics.fail_phi_gt_1);
      EXPECT_EQ(narrow->diagnostics.fail_bernoulli,
                other->diagnostics.fail_bernoulli);
      EXPECT_EQ(narrow->diagnostics.fail_dead_branch,
                other->diagnostics.fail_dead_branch);
      // Accounting identity: every consumed attempt has exactly one fate.
      EXPECT_EQ(other->diagnostics.sample_calls,
                other->diagnostics.sample_success +
                    other->diagnostics.fail_phi_gt_1 +
                    other->diagnostics.fail_bernoulli +
                    other->diagnostics.fail_dead_branch);
    }
  }
}

TEST(Batch, TablesAndDrawsBitIdenticalAcrossBatchWidths) {
  Rng rng(TestSeed(711));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 6;
  Result<FprasParams> params =
      FprasParams::Make(Schedule::kFaster, nfa.num_states(), n, 0.35, 0.2,
                        Calibration::Practical());
  ASSERT_TRUE(params.ok());

  FprasParams p1 = *params;
  p1.batch_width = 1;
  FprasParams p16 = *params;
  p16.batch_width = 16;
  FprasEngine one(&nfa, p1, TestSeed(712));
  FprasEngine sixteen(&nfa, p16, TestSeed(712));
  ASSERT_TRUE(one.Run().ok());
  ASSERT_TRUE(sixteen.Run().ok());

  EXPECT_EQ(one.EstimateAtLength(n), sixteen.EstimateAtLength(n));
  ExpectTablesIdentical(one, sixteen, nfa, n);

  // The post-run draw sequence is counter-keyed per attempt: the j-th
  // accepted word is the same no matter how attempts were batched. B=1
  // consumes exactly one attempt per one-attempt call; harvest the wide
  // engine's accepts over the same 64 attempts and compare the sequences.
  std::vector<Word> wide_words;
  sixteen.SampleAcceptedInto(n, /*max_attempts=*/64, /*min_accepts=*/64,
                             &wide_words);
  std::vector<Word> narrow_words;
  for (int attempt = 0; attempt < 64; ++attempt) {
    one.SampleAcceptedInto(n, 1, 1, &narrow_words);
  }
  EXPECT_EQ(narrow_words, wide_words);
}

/// Five one-word SampleWords calls, then one 15-word call, on a fresh
/// session at n = 6: the concatenated stream.
std::vector<Word> ChunkedDraws(const Nfa& nfa, const CountOptions& options) {
  std::vector<Word> words;
  Result<EngineSession> session = EngineSession::Create(nfa, 6, options);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return words;
  for (int64_t count : {1, 1, 1, 1, 1, 15}) {
    Result<std::vector<Word>> chunk = session->SampleWords(6, count);
    EXPECT_TRUE(chunk.ok());
    if (chunk.ok()) words.insert(words.end(), chunk->begin(), chunk->end());
  }
  return words;
}

TEST(Batch, SessionDrawsIdenticalAcrossBatchWidthsAndKernels) {
  // The draw stream must not depend on the lockstep width, the kernel table,
  // or how the requests are chunked (estimates: the tests above and below).
  Rng rng(TestSeed(721));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  CountOptions base;
  base.seed = TestSeed(722);
  CountOptions narrow = base;
  narrow.batch_width = 1;
  CountOptions wide = base;
  wide.batch_width = 64;

  const std::vector<Word> a = ChunkedDraws(nfa, narrow);
  const std::vector<Word> b = ChunkedDraws(nfa, wide);
  std::vector<Word> c;
  {
    ScopedForceScalar scalar;
    c = ChunkedDraws(nfa, wide);
  }
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(Batch, ForcedScalarDispatchIdenticalEstimates) {
  // Process-wide kernel redirection (the NFACOUNT_FORCE_SCALAR / --no-simd
  // path) must be invisible in every estimate.
  Rng rng(TestSeed(731));
  Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
  Result<CountEstimate> active = ApproxCount(nfa, 6, BatchOpts(TestSeed(732), 8));
  Result<CountEstimate> scalar = Status::Internal("unset");
  {
    ScopedForceScalar force;
    scalar = ApproxCount(nfa, 6, BatchOpts(TestSeed(732), 8));
  }
  ASSERT_TRUE(active.ok() && scalar.ok());
  EXPECT_EQ(active->estimate, scalar->estimate);
}

TEST(Batch, BatchWidthComposesWithThreads) {
  // The two determinism contracts must hold jointly: (threads, batch) both
  // flip at once, results stay put.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  CountOptions base = BatchOpts(TestSeed(741), 1);
  CountOptions flipped = BatchOpts(TestSeed(741), 32);
  flipped.num_threads = 4;
  Result<CountEstimate> a = ApproxCount(nfa, 8, base);
  Result<CountEstimate> b = ApproxCount(nfa, 8, flipped);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->estimate, b->estimate);
}

TEST(Batch, ArenaStopsAllocatingAfterWarmup) {
  // The zero-per-sample-allocation contract: once the engine run has warmed
  // the per-worker arena slabs, drawing many more samples must not grow any
  // arena capacity.
  Rng rng(TestSeed(751));
  Nfa nfa = RandomNfa(6, 0.35, 0.4, rng);
  CountOptions opts;
  opts.seed = TestSeed(752);
  opts.batch_width = 16;
  Result<EngineSession> session = EngineSession::Create(nfa, 6, opts);
  ASSERT_TRUE(session.ok());

  // Warmup: the sweep itself runs thousands of batches; one more draw batch
  // settles any post-run scratch.
  ASSERT_TRUE(session->SampleWords(6, 1).ok());
  const int64_t warm_allocs = session->diagnostics().arena_alloc_events;
  const int64_t warm_bytes = session->diagnostics().arena_bytes_reserved;
  ASSERT_GT(warm_bytes, 0);

  ASSERT_TRUE(session->SampleWords(6, 200).ok());
  EXPECT_EQ(session->diagnostics().arena_alloc_events, warm_allocs)
      << "drawing 200 samples grew an arena slab";
  EXPECT_EQ(session->diagnostics().arena_bytes_reserved, warm_bytes);
}

TEST(Batch, InvalidBatchWidthIsStatusNotCrash) {
  Nfa nfa = ParityNfa(2);
  CountOptions bad = BatchOpts(TestSeed(761), -1);
  Result<CountEstimate> r = ApproxCount(nfa, 5, bad);
  EXPECT_FALSE(r.ok());
  bad.batch_width = FprasParams::kMaxBatchWidth + 1;
  r = ApproxCount(nfa, 5, bad);
  EXPECT_FALSE(r.ok());
  // 0 = engine default: valid.
  bad.batch_width = 0;
  r = ApproxCount(nfa, 5, bad);
  EXPECT_TRUE(r.ok());
}

TEST(Batch, SampleBlockViewsMatchMaterializedSamples) {
  // SampleBlockFor and SamplesFor expose the same data: spans vs copies.
  Rng rng(TestSeed(771));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  const int n = 5;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.4, 0.2, Calibration::Practical());
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, TestSeed(772));
  ASSERT_TRUE(engine.Run().ok());
  for (int level = 0; level <= n; ++level) {
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      const SampleBlock& block = engine.SampleBlockFor(q, level);
      const auto samples = engine.SamplesFor(q, level);
      ASSERT_EQ(static_cast<size_t>(block.count()), samples.size());
      for (int64_t i = 0; i < block.count(); ++i) {
        const SampleRef ref = block.At(i);
        EXPECT_EQ(ref.ToWord(), samples[static_cast<size_t>(i)].word);
        for (StateId s = 0; s < nfa.num_states(); ++s) {
          EXPECT_EQ(ref.ProfileTest(s),
                    samples[static_cast<size_t>(i)].reach.Test(s));
        }
      }
    }
  }
}

}  // namespace
}  // namespace nfacount
