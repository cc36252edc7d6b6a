// Descent-cache correctness: unit behavior of the sharded DescentCache
// (insert/lookup roundtrips, the shared-budget capacity discipline under
// concurrency, the disabled state), and the identity grid — estimates,
// per-(q,ℓ) tables, and draw streams must be bit-identical with the cache
// on, off, or at any capacity, across num_threads and batch_width (the
// purity contract the cache is built on; see fpras/estimator.hpp
// DescentCache).

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::ExpectTablesIdentical;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

Bitset MakeSet(size_t bits, std::initializer_list<int> members) {
  Bitset set(bits);
  for (int q : members) set.Set(static_cast<size_t>(q));
  return set;
}

TEST(DescentCacheUnit, SizesRoundTripAndCounters) {
  DescentCache cache;
  cache.Reset(/*capacity=*/8, /*row_words=*/1, /*alphabet_size=*/2);
  ASSERT_TRUE(cache.enabled());

  const Bitset set = MakeSet(10, {1, 4, 7});
  const std::vector<double> sizes = {3.5, 0.25};
  std::vector<double> out;
  EXPECT_FALSE(cache.LookupSizes(3, set, &out));
  EXPECT_EQ(cache.misses(), 1);

  cache.InsertSizes(3, set, sizes);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_GT(cache.bytes(), 0);
  ASSERT_TRUE(cache.LookupSizes(3, set, &out));
  EXPECT_EQ(out, sizes);
  EXPECT_EQ(cache.hits(), 1);

  // Same frontier at another level is a distinct key.
  EXPECT_FALSE(cache.LookupSizes(4, set, &out));
  // Re-inserting an existing key neither duplicates nor spends budget.
  cache.InsertSizes(3, set, sizes);
  EXPECT_EQ(cache.entries(), 1);
  // Every probe so far was a size probe: the size counters (reported as
  // memo_hits/memo_misses) match the overall ones.
  EXPECT_EQ(cache.size_hits(), 1);
  EXPECT_EQ(cache.size_misses(), 2);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(DescentCacheUnit, RowsPiggybackOnAdmittedEntries) {
  DescentCache cache;
  cache.Reset(/*capacity=*/8, /*row_words=*/2, /*alphabet_size=*/2);
  const Bitset set = MakeSet(70, {0, 65});
  const std::vector<double> sizes = {1.0, 2.0};
  const uint64_t row[2] = {0x12345678u, 0x9abcdef0u};
  uint64_t got[2] = {0, 0};

  // InsertRow on a never-admitted key is a no-op (budget already spent or
  // sizes never inserted) — the next lookup still misses.
  cache.InsertRow(2, set, 1, row);
  EXPECT_FALSE(cache.LookupRow(2, set, 1, got));

  cache.InsertSizes(2, set, sizes);
  EXPECT_FALSE(cache.LookupRow(2, set, 1, got));  // sizes only, row unfilled
  cache.InsertRow(2, set, 1, row);
  ASSERT_TRUE(cache.LookupRow(2, set, 1, got));
  EXPECT_EQ(got[0], row[0]);
  EXPECT_EQ(got[1], row[1]);
  // The other symbol of the same entry is still unfilled.
  EXPECT_FALSE(cache.LookupRow(2, set, 0, got));
  // Row storage is accounted once per entry.
  const int64_t bytes_after_rows = cache.bytes();
  cache.InsertRow(2, set, 1, row);
  EXPECT_EQ(cache.bytes(), bytes_after_rows);
  // Row probes count toward hits/misses but not toward the size probes.
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.size_hits(), 0);
  EXPECT_EQ(cache.size_misses(), 0);
}

TEST(DescentCacheUnit, CapacityZeroDisables) {
  DescentCache cache;
  cache.Reset(/*capacity=*/0, /*row_words=*/1, /*alphabet_size=*/2);
  EXPECT_FALSE(cache.enabled());
  const Bitset set = MakeSet(8, {2});
  cache.InsertSizes(1, set, {1.0, 1.0});
  EXPECT_EQ(cache.entries(), 0);
  std::vector<double> out;
  EXPECT_FALSE(cache.LookupSizes(1, set, &out));
}

TEST(DescentCacheUnit, ConcurrentInsertersNeverOvershootCapacity) {
  // The ISSUE-6 memo bug, applied to the descent cache: with the capacity
  // check done before the shard lock, T concurrent inserters could admit up
  // to capacity + T - 1 entries. The CAS-reserve discipline must hold the
  // bound exactly even when every thread hammers distinct keys.
  constexpr int64_t kCapacity = 64;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 256;
  DescentCache cache;
  cache.Reset(kCapacity, /*row_words=*/1, /*alphabet_size=*/2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      const std::vector<double> sizes = {1.0, 2.0};
      for (int i = 0; i < kKeysPerThread; ++i) {
        Bitset set(4096);
        set.Set(static_cast<size_t>(t * kKeysPerThread + i));
        cache.InsertSizes(1, set, sizes);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.entries(), kCapacity);
}

// ---------------------------------------------------------------------------
// Identity grid: cache on/off × capacity × num_threads × batch_width
// ---------------------------------------------------------------------------

TEST(DescentCacheIdentity, GridBitIdenticalAcrossCapacityThreadsAndWidth) {
  Rng rng(TestSeed(1501));
  Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
  const int n = 6;

  // Baseline: cache off, sequential, narrowest batches.
  CountOptions base = SessionTestOptions(TestSeed(1502));
  base.descent_cache_capacity = 0;
  base.num_threads = 1;
  base.batch_width = 1;
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

  const int64_t capacities[] = {0, 4, int64_t{1} << 20};
  const int thread_counts[] = {1, 4};
  const int widths[] = {1, 32};
  for (int64_t capacity : capacities) {
    for (int threads : thread_counts) {
      for (int width : widths) {
        CountOptions opts = SessionTestOptions(TestSeed(1502));
        opts.descent_cache_capacity = capacity;
        opts.num_threads = threads;
        opts.batch_width = width;
        Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
        ASSERT_TRUE(session.ok())
            << "capacity=" << capacity << " threads=" << threads
            << " width=" << width;
        for (int level = 0; level <= n; ++level) {
          Result<double> c = session->CountAtLength(level);
          ASSERT_TRUE(c.ok());
          EXPECT_EQ(*c, base_counts[static_cast<size_t>(level)])
              << "capacity=" << capacity << " threads=" << threads
              << " width=" << width << " level=" << level;
        }
        ExpectTablesIdentical(session->engine(), baseline->engine(), nfa, n);
        Result<std::vector<Word>> draws = session->SampleWords(n, 12);
        ASSERT_TRUE(draws.ok());
        ASSERT_EQ(draws->size(), base_draws->size());
        for (size_t i = 0; i < draws->size(); ++i) {
          EXPECT_EQ((*draws)[i], (*base_draws)[i])
              << "capacity=" << capacity << " threads=" << threads
              << " width=" << width << " draw=" << i;
        }
      }
    }
  }
}

TEST(DescentCacheIdentity, CacheActuallyHitsOnRepeatedDescents) {
  // Not just "identical": on a run with refills and post-run draws the cache
  // must actually serve repeated (level, frontier) work, or the tentpole is
  // wired to nothing.
  Rng rng(TestSeed(1511));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 6;
  CountOptions opts = SessionTestOptions(TestSeed(1512));
  Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(n).ok());
  Result<std::vector<Word>> draws = session->SampleWords(n, 16);
  ASSERT_TRUE(draws.ok());
  const FprasDiagnostics& diag = session->diagnostics();
  if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
    EXPECT_GT(diag.descent_hits, 0);
    EXPECT_GT(diag.descent_entries, 0);
    EXPECT_GT(diag.descent_bytes, 0);
  }
  EXPECT_GE(diag.descent_hits + diag.descent_misses, diag.descent_entries);
}

TEST(DescentCacheEnv, MalformedOverrideIsInvalid) {
  // Prepare reads NFACOUNT_DESCENT_CACHE (CI's uncached leg sets it to 0).
  // Anything but a whole non-negative decimal must fail naming the
  // variable, so a typo cannot silently run the cached engine.
  struct RestoreEnv {
    const char* name = "NFACOUNT_DESCENT_CACHE";
    std::optional<std::string> saved;
    RestoreEnv() {
      if (const char* v = std::getenv(name)) saved = v;
    }
    ~RestoreEnv() {
      if (saved) {
        setenv(name, saved->c_str(), 1);
      } else {
        unsetenv(name);
      }
    }
  } restore;
  const Nfa nfa = ParityNfa(2);
  const CountOptions opts = SessionTestOptions(TestSeed(1531));
  for (const char* bad : {"off", "0 ", "-1", "", " 5", "+5", "1e3",
                          "99999999999999999999"}) {
    setenv(restore.name, bad, 1);
    Result<EngineSession> s = EngineSession::Create(nfa, 3, opts);
    ASSERT_FALSE(s.ok()) << "'" << bad << "'";
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.status().message().find(restore.name), std::string::npos)
        << s.status().ToString();
  }
  for (const char* good : {"0", "017", "4096"}) {
    setenv(restore.name, good, 1);
    Result<EngineSession> s = EngineSession::Create(nfa, 3, opts);
    ASSERT_TRUE(s.ok()) << good << ": " << s.status().ToString();
    ASSERT_TRUE(s->SampleWords(3, 4).ok()) << good;
    EXPECT_EQ(s->diagnostics().descent_entries == 0,
              std::string(good) == "0")
        << good;
  }
}

TEST(DescentCacheIdentity, ResumedSessionMatchesWithDifferentCacheKnob) {
  // The capacity is a runtime knob like threads/width: a session saved with
  // the cache on and resumed with it off (or vice versa) must continue the
  // identical draw stream. Exercised in memory via serialize/deserialize.
  Rng rng(TestSeed(1521));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 5;
  CountOptions opts = SessionTestOptions(TestSeed(1522));
  Result<EngineSession> a = EngineSession::Create(nfa, n, opts);
  CountOptions off = opts;
  off.descent_cache_capacity = 0;
  Result<EngineSession> b = EngineSession::Create(nfa, n, off);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->ExtendTo(n).ok());
  ASSERT_TRUE(b->ExtendTo(n).ok());
  Result<std::vector<Word>> da = a->SampleWords(n, 6);
  Result<std::vector<Word>> db = b->SampleWords(n, 6);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(*da, *db);
}

}  // namespace
}  // namespace nfacount
