// EngineSession: the incremental multi-query surface must be invisible in
// every result — a session extended in any number of steps, under any
// runtime-knob combination, equals one uninterrupted run at the same
// (nfa, horizon, eps, delta, seed) point, bit for bit; and its per-length
// answers equal the facade's.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::DrawWords;
using testing_support::EngineAtWidth;
using testing_support::ExpectTablesIdentical;
using testing_support::ScopedForceScalar;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

TEST(Session, HorizonCountEqualsApproxCount) {
  // A session queried at its horizon is exactly the facade run: same params
  // derivation, same streams, same estimate — not approximately, equal.
  Rng rng(TestSeed(801));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int n = 6;
    CountOptions opts = SessionTestOptions(TestSeed(802) + trial);
    Result<CountEstimate> direct = ApproxCount(nfa, n, opts);
    Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
    ASSERT_TRUE(direct.ok() && session.ok());
    Result<double> at_horizon = session->CountAtLength(n);
    ASSERT_TRUE(at_horizon.ok());
    EXPECT_EQ(direct->estimate, *at_horizon) << "trial=" << trial;
  }
}

TEST(Session, IncrementalExtensionBitIdenticalToOneShot) {
  Rng rng(TestSeed(811));
  Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
  const int n = 8;
  CountOptions opts = SessionTestOptions(TestSeed(812));

  Result<EngineSession> one_shot = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_TRUE(one_shot->ExtendTo(n).ok());

  // Level-by-level, with queries interleaved between extensions: neither the
  // step granularity nor the reads may perturb anything.
  Result<EngineSession> stepped = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(stepped.ok());
  for (int level = 1; level <= n; ++level) {
    ASSERT_TRUE(stepped->ExtendTo(level).ok());
    Result<double> count = stepped->CountAtLength(level);
    ASSERT_TRUE(count.ok());
  }

  EXPECT_EQ(one_shot->computed_level(), stepped->computed_level());
  for (int level = 0; level <= n; ++level) {
    Result<double> a = one_shot->CountAtLength(level);
    Result<double> b = stepped->CountAtLength(level);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "level=" << level;
  }
  ExpectTablesIdentical(one_shot->engine(), stepped->engine(), nfa, n);
}

TEST(Session, ExtensionComposesWithKnobFlips) {
  // The determinism contracts must hold jointly with incrementality:
  // extend-in-steps on (4 threads, batch 32, scalar kernels) equals one-shot
  // on the defaults. The width is engine-internal, so the flipped side is an
  // engine extended level range by level range, as a session extends.
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const int n = 8;
  CountOptions base = SessionTestOptions(TestSeed(821));
  CountOptions flipped = base;
  flipped.num_threads = 4;

  Result<EngineSession> a = EngineSession::Create(nfa, n, base);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->ExtendTo(n).ok());

  std::unique_ptr<FprasEngine> b;
  {
    ScopedForceScalar scalar;
    b = EngineAtWidth(nfa, n, flipped, 32);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->RunToLevel(3).ok());
    ASSERT_TRUE(b->RunToLevel(5).ok());
    ASSERT_TRUE(b->RunToLevel(n).ok());
  }

  for (int level = 0; level <= n; ++level) {
    Result<double> ca = a->CountAtLength(level);
    ASSERT_TRUE(ca.ok());
    EXPECT_EQ(*ca, b->EstimateAtLength(level)) << "level=" << level;
  }
  ExpectTablesIdentical(a->engine(), *b, nfa, n);
}

TEST(Session, DrawSequenceSurvivesExtensionSplits) {
  Rng rng(TestSeed(831));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 6;
  CountOptions opts = SessionTestOptions(TestSeed(832));

  Result<EngineSession> a = EngineSession::Create(nfa, n, opts);
  Result<EngineSession> b = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE(a->ExtendTo(n).ok());
  Result<std::vector<Word>> wa = a->SampleWords(n, 8);

  ASSERT_TRUE(b->ExtendTo(2).ok());
  ASSERT_TRUE(b->ExtendTo(n).ok());
  Result<std::vector<Word>> wb = b->SampleWords(n, 8);

  ASSERT_TRUE(wa.ok() && wb.ok());
  EXPECT_EQ(*wa, *wb);

  // Continuations of the two draw streams stay aligned too.
  Result<std::vector<Word>> wa2 = a->SampleWords(n, 5);
  Result<std::vector<Word>> wb2 = b->SampleWords(n, 5);
  ASSERT_TRUE(wa2.ok() && wb2.ok());
  EXPECT_EQ(*wa2, *wb2);
}

TEST(Session, DrawStreamInvariantAcrossBatchWidthsAndLengths) {
  // The engine consumes draw attempts exactly (never batch- or
  // window-rounded), so repeated session-sized draw calls — even
  // interleaved across lengths — yield one identical sequence for every
  // batch width and every draw thread count, and the cursor and the exact
  // per-walk counters stay aligned call by call. The larger calls are worth
  // several batches per thread, so the 2- and 4-thread engines run parallel
  // windows there. The reference is a session at the default width.
  Rng rng(TestSeed(891));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 6;
  struct Config {
    int batch_width;
    int num_threads;
  };
  const Config kConfigs[] = {{1, 1},  {1, 2},  {1, 4},  {4, 2},
                             {32, 1}, {32, 2}, {32, 4}};
  const CountOptions opts = SessionTestOptions(TestSeed(892));
  std::vector<std::unique_ptr<FprasEngine>> engines;
  for (const Config& config : kConfigs) {
    CountOptions threaded = opts;
    threaded.num_threads = config.num_threads;
    engines.push_back(EngineAtWidth(nfa, n, threaded, config.batch_width));
    ASSERT_NE(engines.back(), nullptr);
    ASSERT_TRUE(engines.back()->RunToLevel(n).ok());
  }
  Result<EngineSession> reference = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->ExtendTo(n).ok());

  const int lengths[] = {n, n, n - 2, n, n - 2, n, n - 2, n};
  const int64_t counts[] = {2, 3, 1, 4, 2, 40, 64, 5};
  for (size_t i = 0; i < 8; ++i) {
    Result<std::vector<Word>> want =
        reference->SampleWords(lengths[i], counts[i]);
    ASSERT_TRUE(want.ok()) << "call " << i;
    const FprasDiagnostics want_diag = reference->diagnostics();
    for (size_t c = 0; c < engines.size(); ++c) {
      const std::string where =
          "call " + std::to_string(i) + " batch_width " +
          std::to_string(kConfigs[c].batch_width) + " threads " +
          std::to_string(kConfigs[c].num_threads);
      FprasEngine& engine = *engines[c];
      EXPECT_EQ(*want, DrawWords(engine, lengths[i], counts[i])) << where;
      EXPECT_EQ(reference->engine().draw_cursor(), engine.draw_cursor())
          << where;
      const FprasDiagnostics& g = engine.diagnostics();
      EXPECT_EQ(want_diag.sample_calls, g.sample_calls) << where;
      EXPECT_EQ(want_diag.sample_success, g.sample_success) << where;
      EXPECT_EQ(want_diag.fail_phi_gt_1, g.fail_phi_gt_1) << where;
      EXPECT_EQ(want_diag.fail_bernoulli, g.fail_bernoulli) << where;
      EXPECT_EQ(want_diag.fail_dead_branch, g.fail_dead_branch) << where;
    }
  }
}

TEST(Session, DrawBudgetEndsIdenticallyAtEveryThreadCount) {
  // A call that runs out of attempts before it has its words ends on the
  // budget, mid-window when the window was cut to fit it: every thread
  // count appends the same words and leaves the cursor at the same
  // attempt.
  Rng rng(TestSeed(891));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 6;
  const int64_t kBudgets[] = {37, 200, 5, 1000};
  std::vector<std::vector<Word>> want_words;
  std::vector<int64_t> want_appended;
  std::vector<int64_t> want_cursor;
  for (int threads : {1, 2, 4}) {
    CountOptions opts = SessionTestOptions(TestSeed(892));
    opts.num_threads = threads;
    Result<FprasParams> params =
        ParamsFromOptions(opts, nfa.num_states(), n);
    ASSERT_TRUE(params.ok());
    FprasEngine engine(&nfa, *params, opts.seed);
    ASSERT_TRUE(engine.Run().ok());
    for (size_t i = 0; i < 4; ++i) {
      std::vector<Word> out;
      // More accepts than the budget has attempts: the budget ends it.
      const int64_t appended =
          engine.SampleAcceptedInto(n, kBudgets[i], kBudgets[i] + 1, &out);
      if (threads == 1) {
        want_words.push_back(out);
        want_appended.push_back(appended);
        want_cursor.push_back(engine.draw_cursor());
        continue;
      }
      EXPECT_EQ(want_appended[i], appended)
          << "threads " << threads << " call " << i;
      EXPECT_EQ(want_words[i], out) << "threads " << threads << " call " << i;
      EXPECT_EQ(want_cursor[i], engine.draw_cursor())
          << "threads " << threads << " call " << i;
    }
  }
  // The budget is the only stop, so the cursor ends at their sum.
  EXPECT_EQ(want_cursor.back(), 37 + 200 + 5 + 1000);
}

TEST(Session, QueriesAtEarlierLengthsNeedNoRecomputation) {
  Rng rng(TestSeed(841));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 7;
  Result<EngineSession> session =
      EngineSession::Create(nfa, n, SessionTestOptions(TestSeed(842)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(n).ok());
  // Several accepting states are live at the horizon, so |L(A_n)| is an
  // AppUnion over them rather than one cell's N: recomputing it per query
  // would show in appunion_calls.
  Bitset live_accepting = nfa.accepting();
  live_accepting &= session->engine().unrolled().ReachableAt(n);
  ASSERT_GE(live_accepting.Count(), 2u);
  const int64_t states_after_sweep =
      session->diagnostics().states_processed;
  const int64_t unions_after_sweep = session->diagnostics().appunion_calls;
  for (int level = 0; level <= n; ++level) {
    ASSERT_TRUE(session->CountAtLength(level).ok());
  }
  // No cell was reprocessed by the queries, and no per-length union was
  // re-estimated: every count reads the estimate published by the sweep.
  EXPECT_EQ(session->diagnostics().states_processed, states_after_sweep);
  EXPECT_EQ(session->diagnostics().appunion_calls, unions_after_sweep);
}

TEST(Session, EngineReadsAndDrawsRunNoUnionOfTheirOwn) {
  // The engine-level sibling of the test above: |L(A_ℓ)| is computed once,
  // with its level, so neither a read at any level nor a draw call (whose
  // γ0 comes from the stored value) runs an AppUnion. A zero-attempt draw
  // isolates the per-call cost from the walks' own union sizes.
  Rng rng(TestSeed(841));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 7;
  Result<FprasParams> params =
      ParamsFromOptions(SessionTestOptions(TestSeed(842)), nfa.num_states(), n);
  ASSERT_TRUE(params.ok());
  FprasEngine engine(&nfa, *params, TestSeed(842));
  ASSERT_TRUE(engine.Run().ok());
  Bitset live_accepting = nfa.accepting();
  live_accepting &= engine.unrolled().ReachableAt(n);
  ASSERT_GE(live_accepting.Count(), 2u);
  const int64_t unions_after_run = engine.diagnostics().appunion_calls;
  for (int level = 0; level <= n; ++level) engine.EstimateAtLength(level);
  std::vector<Word> out;
  EXPECT_EQ(engine.SampleAcceptedInto(n, /*max_attempts=*/0, 1, &out), 0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(engine.diagnostics().appunion_calls, unions_after_run);
}

TEST(Session, CountForMatchesEngineTable) {
  Rng rng(TestSeed(851));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  const int n = 5;
  Result<EngineSession> session =
      EngineSession::Create(nfa, n, SessionTestOptions(TestSeed(852)));
  ASSERT_TRUE(session.ok());
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    Result<double> c = session->CountFor(q, 4);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*c, session->engine().CountEstimateFor(q, 4));
  }
}

TEST(Session, LengthValidationIsStatusNotCrash) {
  Nfa nfa = ParityNfa(2);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(861)));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->ExtendTo(6).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(session->ExtendTo(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->CountAtLength(99).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session->SampleWords(6, 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session->CountFor(99, 2).status().code(),
            StatusCode::kInvalidArgument);
  // The failed calls must not have advanced anything.
  EXPECT_EQ(session->computed_level(), 2);  // CountFor extended to 2
}

TEST(Session, EmptyLanguageAndLengthZeroEdges) {
  // Needle NFA: exactly one word at n = 3, empty at other lengths.
  Nfa nfa = SparseNeedle(Word{1, 0, 1});
  Result<EngineSession> session =
      EngineSession::Create(nfa, 4, SessionTestOptions(TestSeed(871)));
  ASSERT_TRUE(session.ok());
  Result<std::vector<Word>> empty = session->SampleWords(4, 2);
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
  Result<std::vector<Word>> hit = session->SampleWords(3, 2);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[0], (Word{1, 0, 1}));
  EXPECT_EQ((*hit)[1], (Word{1, 0, 1}));
  // Length 0: L(A_0) is empty unless the initial state accepts.
  Result<std::vector<Word>> zero = session->SampleWords(0, 1);
  EXPECT_EQ(zero.status().code(), StatusCode::kNotFound);
}

TEST(Session, ZeroHorizonSession) {
  Nfa nfa = DenseCompleteNfa(3);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 0, SessionTestOptions(TestSeed(881)));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->computed_level(), 0);
  Result<double> c = session->CountAtLength(0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, nfa.IsAccepting(nfa.initial()) ? 1.0 : 0.0);
}

TEST(Session, CountOptionsReachParamsAtEveryHorizon) {
  // One CountOptions → FprasParams mapping serves ApproxCount and
  // EngineSession::Create, including the n = 0 shortcut that runs no engine:
  // the reported params must carry the caller's knobs, not the defaults.
  Nfa nfa = DenseCompleteNfa(3);
  CountOptions o = SessionTestOptions(TestSeed(891));
  o.perturb_support = false;
  o.recycle_samples = false;
  o.num_threads = 3;
  o.descent_cache_capacity = 77;
  const auto expect_knobs = [&](const FprasParams& p, int n) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    EXPECT_EQ(p.n, n);
    EXPECT_FALSE(p.perturb_support);
    EXPECT_FALSE(p.recycle_samples);
    EXPECT_EQ(p.num_threads, 3);
    EXPECT_EQ(p.descent_cache_capacity, 77);
  };
  for (int n : {0, 3}) {
    Result<CountEstimate> counted = ApproxCount(nfa, n, o);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    expect_knobs(counted->params, n);
    Result<EngineSession> session = EngineSession::Create(nfa, n, o);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    expect_knobs(session->params(), n);
  }
}

}  // namespace
}  // namespace nfacount
