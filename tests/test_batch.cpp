// Batch-width invariance of the lockstep sampling plane: because every
// candidate walk draws from its own attempt-indexed RNG substream, the same
// (nfa, n, seed) must produce bit-identical estimates, per-(q,ℓ) tables, and
// post-run draw sequences for every batch_width — and for the SIMD vs scalar
// kernel tables, whose operations compute identical bits by construction.
// The width is engine-internal (FprasParams::batch_width), so these tests
// build engines at each width directly. Also covers the arena reuse contract
// (no per-sample allocations once the slabs are warm) and the batch_width
// validation in FprasEngine::Run.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nfacount {
namespace {

using testing_support::DrawWords;
using testing_support::EngineAtWidth;
using testing_support::ExpectTablesIdentical;
using testing_support::ScopedForceScalar;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

TEST(Batch, EstimateBitIdenticalAcrossBatchWidths) {
  Rng rng(TestSeed(701));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
    const int n = 6;
    const CountOptions options = SessionTestOptions(TestSeed(702) + trial);
    std::unique_ptr<FprasEngine> engines[] = {
        EngineAtWidth(nfa, n, options, 1), EngineAtWidth(nfa, n, options, 4),
        EngineAtWidth(nfa, n, options, 16)};
    for (const auto& engine : engines) {
      ASSERT_NE(engine, nullptr);
      ASSERT_TRUE(engine->RunToLevel(n).ok());
    }
    const FprasEngine& narrow = *engines[0];
    const FprasDiagnostics& want = narrow.diagnostics();
    for (const auto& engine : engines) {
      const FprasEngine& other = *engine;
      SCOPED_TRACE(::testing::Message()
                   << "trial=" << trial
                   << " width=" << other.params().batch_width);
      EXPECT_EQ(narrow.EstimateAtLength(n), other.EstimateAtLength(n));
      // Every deterministic counter must agree — including the per-walk
      // attempt counters (sample_calls, fail_*): the engine consumes
      // outcomes exactly up to the attempt that fills each sample set, so
      // speculative lockstep surplus never leaks into the diagnostics at
      // any width.
      const FprasDiagnostics& got = other.diagnostics();
      EXPECT_EQ(want.states_processed, got.states_processed);
      EXPECT_EQ(want.padded_words, got.padded_words);
      EXPECT_EQ(want.perturbed_counts, got.perturbed_counts);
      EXPECT_EQ(want.sample_calls, got.sample_calls);
      EXPECT_EQ(want.sample_success, got.sample_success);
      EXPECT_EQ(want.fail_phi_gt_1, got.fail_phi_gt_1);
      EXPECT_EQ(want.fail_bernoulli, got.fail_bernoulli);
      EXPECT_EQ(want.fail_dead_branch, got.fail_dead_branch);
      // Accounting identity: every consumed attempt has exactly one fate.
      EXPECT_EQ(got.sample_calls, got.sample_success + got.fail_phi_gt_1 +
                                      got.fail_bernoulli +
                                      got.fail_dead_branch);
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

/// Five one-word draw calls, then one 15-word call, at n = 6 on an engine at
/// `batch_width` built inside the call: the concatenated stream.
std::vector<Word> ChunkedDraws(const Nfa& nfa, const CountOptions& options,
                               int batch_width) {
  std::vector<Word> words;
  std::unique_ptr<FprasEngine> engine =
      EngineAtWidth(nfa, 6, options, batch_width);
  if (engine == nullptr || !engine->RunToLevel(6).ok()) return words;
  for (int64_t count : {1, 1, 1, 1, 1, 15}) {
    const std::vector<Word> chunk = DrawWords(*engine, 6, count);
    words.insert(words.end(), chunk.begin(), chunk.end());
  }
  return words;
}

TEST(Batch, ChunkedDrawsIdenticalAcrossBatchWidthsAndKernels) {
  // The draw stream must not depend on the lockstep width, the kernel table,
  // or how the requests are chunked (estimates: the tests above and below);
  // a session, at the default width, draws the same stream.
  Rng rng(TestSeed(721));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  CountOptions options;
  options.seed = TestSeed(722);

  const std::vector<Word> a = ChunkedDraws(nfa, options, 1);
  const std::vector<Word> b = ChunkedDraws(nfa, options, 64);
  std::vector<Word> c;
  {
    ScopedForceScalar scalar;
    c = ChunkedDraws(nfa, options, 64);
  }
  Result<EngineSession> session = EngineSession::Create(nfa, 6, options);
  ASSERT_TRUE(session.ok());
  Result<std::vector<Word>> d = session->SampleWords(6, 20);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, *d);
}

TEST(Batch, ForcedScalarDispatchIdenticalEstimates) {
  // Process-wide kernel redirection (the NFACOUNT_FORCE_SCALAR / --no-simd
  // path) must be invisible in every estimate.
  Rng rng(TestSeed(731));
  Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
  const CountOptions options = SessionTestOptions(TestSeed(732));
  Result<CountEstimate> active = ApproxCount(nfa, 6, options);
  Result<CountEstimate> scalar = Status::Internal("unset");
  {
    ScopedForceScalar force;
    scalar = ApproxCount(nfa, 6, options);
  }
  ASSERT_TRUE(active.ok() && scalar.ok());
  EXPECT_EQ(active->estimate, scalar->estimate);
}

TEST(Batch, BatchWidthComposesWithThreads) {
  // The two determinism contracts must hold jointly: (threads, batch) both
  // flip at once, results stay put.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const CountOptions base = SessionTestOptions(TestSeed(741));
  CountOptions threaded = base;
  threaded.num_threads = 4;
  std::unique_ptr<FprasEngine> a = EngineAtWidth(nfa, 8, base, 1);
  std::unique_ptr<FprasEngine> b = EngineAtWidth(nfa, 8, threaded, 32);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  ASSERT_TRUE(a->RunToLevel(8).ok() && b->RunToLevel(8).ok());
  EXPECT_EQ(a->EstimateAtLength(8), b->EstimateAtLength(8));
}

TEST(Batch, ArenaStopsAllocatingAfterWarmup) {
  // The zero-per-sample-allocation contract: once the engine run has warmed
  // the per-worker arena slabs, drawing many more samples must not grow any
  // arena capacity.
  Rng rng(TestSeed(751));
  Nfa nfa = RandomNfa(6, 0.35, 0.4, rng);
  CountOptions opts;
  opts.seed = TestSeed(752);
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
  Result<FprasParams> params = ParamsFromOptions(
      SessionTestOptions(TestSeed(761)), nfa.num_states(), 5);
  ASSERT_TRUE(params.ok());
  // 0 = engine default: valid.
  for (int width : {-1, FprasParams::kMaxBatchWidth + 1, 0}) {
    FprasParams p = *params;
    p.batch_width = width;
    FprasEngine engine(&nfa, p, TestSeed(761));
    EXPECT_EQ(engine.Run().ok(), width == 0) << "width=" << width;
  }
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
