// Descent-cache correctness: unit behavior of the sharded DescentCache
// (Find/Insert and FindUnion/InsertUnion roundtrips, frontier and union keys
// kept apart, first writer wins, stable entry pointers, child links, byte
// accounting, the shared-budget capacity discipline under concurrency,
// Reset, the disabled state), the purity of every admitted predecessor
// row, that every published child link is the hashed child, and the
// identity grid — estimates, per-(q,ℓ) tables, and draw streams must be
// bit-identical with the cache on, off, or at any capacity, across
// num_threads and batch_width (the purity contract the cache is built on;
// see fpras/estimator.hpp DescentCache).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

Bitset MakeSet(size_t bits, std::initializer_list<int> members) {
  Bitset set(bits);
  for (int q : members) set.Set(static_cast<size_t>(q));
  return set;
}

/// num_classes rows of row_words words, each word distinct and non-zero.
std::vector<uint64_t> MakeRows(int num_classes, size_t row_words,
                               uint64_t salt) {
  std::vector<uint64_t> rows(static_cast<size_t>(num_classes) * row_words);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = salt * 1000 + i + 1;
  return rows;
}

/// The footprint Insert charges for one entry of this geometry.
int64_t EntryBytes(int num_classes, size_t row_words) {
  return static_cast<int64_t>(
      sizeof(DescentEntry) +
      (row_words + static_cast<size_t>(num_classes) * row_words) *
          sizeof(uint64_t) +
      static_cast<size_t>(num_classes) *
          (sizeof(double) + sizeof(DescentEntry::ChildLink)));
}

/// The footprint InsertUnion charges for one union-memo entry: the entry
/// (level, key vector, estimate) and its key's words.
int64_t UnionEntryBytes(size_t row_words) {
  return static_cast<int64_t>(sizeof(DescentCache::UnionEntry) +
                              row_words * sizeof(uint64_t));
}

void ExpectEntryHolds(const DescentEntry* entry, int level,
                      const std::vector<double>& sizes,
                      const std::vector<uint64_t>& rows, size_t row_words) {
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->level, level);
  EXPECT_EQ(entry->sizes, sizes);
  EXPECT_EQ(entry->rows, rows);
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (size_t k = 0; k < row_words; ++k) {
      EXPECT_EQ(entry->Row(static_cast<int>(c))[k], rows[c * row_words + k])
          << "class " << c << " word " << k;
    }
  }
}

TEST(DescentCacheUnit, FindInsertRoundTripAndCounters) {
  constexpr size_t kRowWords = 2;
  constexpr int kClasses = 3;
  DescentCache cache;
  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  ASSERT_TRUE(cache.enabled());

  const Bitset set = MakeSet(70, {1, 4, 65});
  const std::vector<double> sizes = {3.5, 0.25, 8.0};
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 1);
  EXPECT_EQ(cache.Find(3, set.words().data()), nullptr);
  EXPECT_EQ(cache.misses(), 1);

  const DescentEntry* entry =
      cache.Insert(3, set.words().data(), sizes, rows.data());
  ExpectEntryHolds(entry, 3, sizes, rows, kRowWords);
  EXPECT_EQ(entry->set, set.words());
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.Find(3, set.words().data()), entry);
  EXPECT_EQ(cache.hits(), 1);

  // Same frontier at another level is a distinct key.
  EXPECT_EQ(cache.Find(4, set.words().data()), nullptr);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 2);

  // The union memo: a round trip, and the same (level, words) as a frontier
  // key is a different key in each kind. Memo probes count no hit or miss.
  double estimate = -1.0;
  EXPECT_FALSE(cache.FindUnion(3, set.words().data(), &estimate));
  EXPECT_EQ(estimate, -1.0);
  EXPECT_TRUE(cache.InsertUnion(3, set.words().data(), 6.75));
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.union_entries(), 1);
  ASSERT_TRUE(cache.FindUnion(3, set.words().data(), &estimate));
  EXPECT_EQ(estimate, 6.75);
  EXPECT_FALSE(cache.FindUnion(4, set.words().data(), &estimate));
  EXPECT_EQ(cache.Find(3, set.words().data()), entry);
  ExpectEntryHolds(entry, 3, sizes, rows, kRowWords);
  const Bitset other = MakeSet(70, {1, 4});
  EXPECT_TRUE(cache.InsertUnion(5, other.words().data(), 1.5));
  EXPECT_EQ(cache.Find(5, other.words().data()), nullptr);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 3);
}

TEST(DescentCacheUnit, UnionMemoRoundTripsThousandsOfKeys) {
  // Hundreds of keys per shard rehash every shard's union map several
  // times; each key must still find its own estimate, and a near-miss key
  // (same words, other level) none.
  constexpr size_t kRowWords = 2;
  DescentCache cache;
  cache.Reset(/*capacity=*/int64_t{1} << 20, kRowWords, /*num_classes=*/2);
  const auto key = [](int i) {
    return std::vector<uint64_t>{static_cast<uint64_t>(i) * 0x9E37ULL + 1,
                                 static_cast<uint64_t>(i % 7)};
  };
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(cache.InsertUnion(1 + i % 5, key(i).data(), i + 0.5));
  }
  EXPECT_EQ(cache.union_entries(), 3000);
  EXPECT_EQ(cache.entries(), 3000);
  for (int i = 0; i < 3000; ++i) {
    double estimate = 0.0;
    ASSERT_TRUE(cache.FindUnion(1 + i % 5, key(i).data(), &estimate)) << i;
    EXPECT_EQ(estimate, i + 0.5) << i;
  }
  double estimate = 0.0;
  EXPECT_FALSE(cache.FindUnion(9, key(0).data(), &estimate));
}

TEST(DescentCacheUnit, FirstWriterWins) {
  constexpr size_t kRowWords = 1;
  constexpr int kClasses = 2;
  DescentCache cache;
  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  const Bitset set = MakeSet(10, {2, 9});
  const std::vector<double> first = {1.0, 2.0};
  const std::vector<uint64_t> first_rows = MakeRows(kClasses, kRowWords, 1);
  const DescentEntry* a =
      cache.Insert(5, set.words().data(), first, first_rows.data());
  ASSERT_NE(a, nullptr);
  const int64_t bytes = cache.bytes();

  // A second insert of the key returns the stored entry untouched and
  // spends no budget (in the engine both writers carry identical values;
  // different ones here show which one is kept).
  const std::vector<double> second = {7.0, 9.0};
  const std::vector<uint64_t> second_rows = MakeRows(kClasses, kRowWords, 2);
  const DescentEntry* b =
      cache.Insert(5, set.words().data(), second, second_rows.data());
  EXPECT_EQ(b, a);
  ExpectEntryHolds(b, 5, first, first_rows, kRowWords);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.bytes(), bytes);

  // The union memo keeps its first writer the same way.
  ASSERT_TRUE(cache.InsertUnion(5, set.words().data(), 2.5));
  const int64_t union_bytes = cache.bytes();
  EXPECT_TRUE(cache.InsertUnion(5, set.words().data(), 9.5));
  double estimate = 0.0;
  ASSERT_TRUE(cache.FindUnion(5, set.words().data(), &estimate));
  EXPECT_EQ(estimate, 2.5);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.bytes(), union_bytes);
}

TEST(DescentCacheUnit, RefusedInsertReturnsNull) {
  constexpr size_t kRowWords = 1;
  constexpr int kClasses = 2;
  DescentCache cache;
  cache.Reset(/*capacity=*/2, kRowWords, kClasses);
  const std::vector<double> sizes = {1.0, 1.0};
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 1);
  const Bitset s0 = MakeSet(8, {0});
  const Bitset s1 = MakeSet(8, {1});
  const Bitset s2 = MakeSet(8, {2});
  const DescentEntry* e0 = cache.Insert(1, s0.words().data(), sizes,
                                        rows.data());
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(cache.Insert(1, s1.words().data(), sizes, rows.data()), nullptr);
  const int64_t bytes = cache.bytes();

  // The budget is spent: a new key is refused and stays absent...
  EXPECT_EQ(cache.Insert(1, s2.words().data(), sizes, rows.data()), nullptr);
  EXPECT_EQ(cache.Find(1, s2.words().data()), nullptr);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.bytes(), bytes);
  // ...while an admitted key still answers.
  EXPECT_EQ(cache.Insert(1, s0.words().data(), sizes, rows.data()), e0);

  // The union memo draws on the same budget: refused, and absent after.
  double estimate = 0.0;
  EXPECT_FALSE(cache.InsertUnion(1, s2.words().data(), 4.0));
  EXPECT_FALSE(cache.FindUnion(1, s2.words().data(), &estimate));
  EXPECT_EQ(cache.union_entries(), 0);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.bytes(), bytes);

  // A union entry spends the budget a frontier entry then cannot have.
  cache.Reset(/*capacity=*/1, kRowWords, kClasses);
  EXPECT_TRUE(cache.InsertUnion(1, s0.words().data(), 4.0));
  EXPECT_EQ(cache.Insert(1, s1.words().data(), sizes, rows.data()), nullptr);
  EXPECT_EQ(cache.entries(), 1);
}

TEST(DescentCacheUnit, ResetClearsBothKinds) {
  constexpr size_t kRowWords = 1;
  constexpr int kClasses = 2;
  DescentCache cache;
  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  const std::vector<double> sizes = {1.0, 1.0};
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 1);
  const Bitset set = MakeSet(8, {3});
  ASSERT_NE(cache.Insert(2, set.words().data(), sizes, rows.data()), nullptr);
  ASSERT_TRUE(cache.InsertUnion(2, set.words().data(), 3.0));
  ASSERT_NE(cache.Find(2, set.words().data()), nullptr);

  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  double estimate = 0.0;
  EXPECT_FALSE(cache.FindUnion(2, set.words().data(), &estimate));
  EXPECT_EQ(cache.Find(2, set.words().data()), nullptr);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.union_entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 1);  // the probe after the Reset
  // The cleared memo admits again.
  EXPECT_TRUE(cache.InsertUnion(2, set.words().data(), 5.0));
  ASSERT_TRUE(cache.FindUnion(2, set.words().data(), &estimate));
  EXPECT_EQ(estimate, 5.0);
}

TEST(DescentCacheUnit, EntryPointersSurviveLaterInserts) {
  // The walk keeps a group's entry pointer for the whole level pass and
  // reads it without the shard lock, while other threads insert. Thousands
  // of later inserts rehash every shard several times; the first entry must
  // neither move nor change.
  constexpr size_t kRowWords = 2;
  constexpr int kClasses = 3;
  DescentCache cache;
  cache.Reset(/*capacity=*/int64_t{1} << 20, kRowWords, kClasses);
  const Bitset first = MakeSet(128, {0, 100});
  const std::vector<double> sizes = {0.5, 1.5, 2.5};
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 7);
  const DescentEntry* entry =
      cache.Insert(2, first.words().data(), sizes, rows.data());
  ASSERT_NE(entry, nullptr);

  const std::vector<double> other_sizes = {9.0, 9.0, 9.0};
  const std::vector<uint64_t> other_rows = MakeRows(kClasses, kRowWords, 8);
  for (int i = 0; i < 4000; ++i) {
    Bitset set(128);
    set.Set(static_cast<size_t>(i % 128));
    set.Set(static_cast<size_t>((i / 128) % 128));
    if (set == first) continue;
    cache.Insert(2 + i % 3, set.words().data(), other_sizes,
                 other_rows.data());
  }
  EXPECT_GT(cache.entries(), 1000);
  EXPECT_EQ(cache.Find(2, first.words().data()), entry);
  ExpectEntryHolds(entry, 2, sizes, rows, kRowWords);
}

TEST(DescentCacheUnit, BytesCountRowsOnceAtAdmission) {
  constexpr size_t kRowWords = 2;
  constexpr int kClasses = 4;
  DescentCache cache;
  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  EXPECT_EQ(cache.bytes(), 0);
  const std::vector<double> sizes(kClasses, 1.0);
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 3);
  const Bitset a = MakeSet(100, {3, 70});
  const Bitset b = MakeSet(100, {4, 71});
  ASSERT_NE(cache.Insert(6, a.words().data(), sizes, rows.data()), nullptr);
  // Keys, sizes, every class's row and every class's child link are
  // charged when the entry comes in.
  EXPECT_EQ(cache.bytes(), EntryBytes(kClasses, kRowWords));
  // Probes and repeated inserts charge nothing more.
  ASSERT_NE(cache.Find(6, a.words().data()), nullptr);
  cache.Insert(6, a.words().data(), sizes, rows.data());
  EXPECT_EQ(cache.bytes(), EntryBytes(kClasses, kRowWords));
  ASSERT_NE(cache.Insert(6, b.words().data(), sizes, rows.data()), nullptr);
  EXPECT_EQ(cache.bytes(), 2 * EntryBytes(kClasses, kRowWords));
  // A union entry is charged its record, estimate and slots at admission;
  // probes charge nothing.
  ASSERT_TRUE(cache.InsertUnion(6, a.words().data(), 2.0));
  const int64_t both =
      2 * EntryBytes(kClasses, kRowWords) + UnionEntryBytes(kRowWords);
  EXPECT_EQ(cache.bytes(), both);
  double estimate = 0.0;
  ASSERT_TRUE(cache.FindUnion(6, a.words().data(), &estimate));
  EXPECT_EQ(cache.bytes(), both);
}

TEST(DescentCacheUnit, ChildLinkStartsNullAndHoldsAfterRepeatStore) {
  constexpr size_t kRowWords = 1;
  constexpr int kClasses = 3;
  DescentCache cache;
  cache.Reset(/*capacity=*/8, kRowWords, kClasses);
  const std::vector<double> sizes(kClasses, 1.0);
  const std::vector<uint64_t> rows = MakeRows(kClasses, kRowWords, 4);
  const Bitset top = MakeSet(16, {5});
  const DescentEntry* parent =
      cache.Insert(4, top.words().data(), sizes, rows.data());
  ASSERT_NE(parent, nullptr);
  for (int c = 0; c < kClasses; ++c) {
    EXPECT_EQ(parent->Link(c).load(std::memory_order_acquire), nullptr)
        << "class " << c;
  }
  // Class 1's child is the entry of (level − 1, Row(1)). Two walks that
  // both probed it publish the same pointer; the second store changes
  // nothing.
  const DescentEntry* child = cache.Insert(3, parent->Row(1), sizes,
                                           rows.data());
  ASSERT_NE(child, nullptr);
  parent->Link(1).store(child, std::memory_order_release);
  parent->Link(1).store(child, std::memory_order_release);
  EXPECT_EQ(parent->Link(1).load(std::memory_order_acquire), child);
  EXPECT_EQ(parent->Link(0).load(std::memory_order_acquire), nullptr);
  EXPECT_EQ(parent->Link(2).load(std::memory_order_acquire), nullptr);
  EXPECT_EQ(child->Link(1).load(std::memory_order_acquire), nullptr);
  // A re-insert of the parent's key hands back the entry with its link.
  EXPECT_EQ(cache.Insert(4, top.words().data(), sizes, rows.data()), parent);
  EXPECT_EQ(parent->Link(1).load(std::memory_order_acquire), child);

  // Following a link counts as the hit the replaced probe would have been.
  EXPECT_EQ(cache.hits(), 0);
  cache.CountLinkHits(5);
  EXPECT_EQ(cache.hits(), 5);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(DescentCacheUnit, CapacityZeroDisables) {
  DescentCache cache;
  cache.Reset(/*capacity=*/0, /*row_words=*/1, /*num_classes=*/2);
  EXPECT_FALSE(cache.enabled());
  const Bitset set = MakeSet(8, {2});
  const std::vector<uint64_t> rows = MakeRows(2, 1, 1);
  EXPECT_EQ(cache.Insert(1, set.words().data(), {1.0, 1.0}, rows.data()),
            nullptr);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.Find(1, set.words().data()), nullptr);
  double estimate = 0.0;
  EXPECT_FALSE(cache.InsertUnion(1, set.words().data(), 1.0));
  EXPECT_FALSE(cache.FindUnion(1, set.words().data(), &estimate));
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(DescentCacheUnit, ConcurrentInsertersNeverOvershootCapacity) {
  // With the capacity check done before the shard lock, T concurrent
  // inserters could admit up to capacity + T - 1 entries. The CAS-reserve
  // discipline must hold the bound exactly even when every thread hammers
  // distinct keys, and only admitted inserts may return an entry.
  constexpr int64_t kCapacity = 64;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 256;
  constexpr size_t kRowWords = 4096 / 64;
  DescentCache cache;
  cache.Reset(kCapacity, kRowWords, /*num_classes=*/2);
  std::vector<int64_t> admitted(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &admitted, t] {
      const std::vector<double> sizes = {1.0, 2.0};
      const std::vector<uint64_t> rows = MakeRows(2, kRowWords, 1);
      for (int i = 0; i < kKeysPerThread; ++i) {
        Bitset set(4096);
        set.Set(static_cast<size_t>(t * kKeysPerThread + i));
        if (cache.Insert(1, set.words().data(), sizes, rows.data()) !=
            nullptr) {
          ++admitted[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.entries(), kCapacity);
  int64_t total = 0;
  for (int64_t a : admitted) total += a;
  EXPECT_EQ(total, kCapacity);
}

// ---------------------------------------------------------------------------
// Identity grid: cache on/off × capacity × num_threads × batch_width
// ---------------------------------------------------------------------------

/// 66 states over a 4-symbol alphabet whose symbols 2 and 3 have identical
/// transitions: three symbol classes, one of weight 2, and frontiers two
/// words wide — so an entry holds three two-word rows, and a slip in the
/// class × row_words indexing reads another class's row.
Nfa WideThreeClassNfa(uint64_t seed) {
  constexpr int kStates = 66;
  Rng rng(seed);
  Nfa nfa(/*alphabet_size=*/4);
  nfa.AddStates(kStates);
  nfa.SetInitial(0);
  for (StateId q = 0; q < kStates; ++q) {
    for (Symbol a = 0; a < 3; ++a) {
      // One forced edge keeps every level alive; about 1.5 more per symbol.
      std::vector<StateId> targets = {
          static_cast<StateId>(rng.UniformU64(kStates))};
      for (StateId r = 0; r < kStates; ++r) {
        if (rng.Bernoulli(1.5 / kStates)) targets.push_back(r);
      }
      for (StateId r : targets) {
        nfa.AddTransition(q, a, r);
        if (a == 2) nfa.AddTransition(q, 3, r);
      }
    }
  }
  nfa.AddAccepting(static_cast<StateId>(rng.UniformU64(kStates)));
  nfa.AddAccepting(65);
  return nfa;
}

struct GridCase {
  const char* name;
  Nfa nfa;
  int n;
  CountOptions options;
};

std::vector<GridCase> GridCases() {
  Rng rng(TestSeed(1501));
  std::vector<GridCase> cases;
  cases.push_back({"random7", RandomNfa(7, 0.3, 0.3, rng), 6,
                   SessionTestOptions(TestSeed(1502))});
  // Smaller sample and trial floors keep the uncached legs of the 66-state
  // case at unit-test cost; identity does not depend on the accuracy point.
  CountOptions lean = SessionTestOptions(TestSeed(1504));
  lean.calibration.ns_floor = 32;
  lean.calibration.trial_floor = 64;
  cases.push_back({"wide66x3classes", WideThreeClassNfa(TestSeed(1503)), 3,
                   lean});
  return cases;
}

TEST(DescentCacheIdentity, WideAutomatonHasThreeClassesAndTwoWordRows) {
  const Nfa nfa = WideThreeClassNfa(TestSeed(1503));
  const UnrolledNfa unrolled(&nfa, 5);
  EXPECT_EQ(unrolled.symbol_classes().num_classes(), 3);
  EXPECT_GT(nfa.num_states(), 64);
}

TEST(DescentCacheIdentity, GridBitIdenticalAcrossCapacityThreadsAndWidth) {
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    const Nfa& nfa = gc.nfa;
    const int n = gc.n;

    // Baseline: a session with the cache off, sequential, at the default
    // width. The grid builds engines, since the width is engine-internal.
    CountOptions base = gc.options;
    base.descent_cache_capacity = 0;
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

    // The same session at the default capacity: identical counts and words
    // for fewer AppUnion calls, since the union memo runs each sample-path
    // (level, Pred set) once. Its post-build entry count sizes a capacity
    // that runs out halfway through the build.
    CountOptions cached = gc.options;
    cached.num_threads = 1;
    Result<EngineSession> memo = EngineSession::Create(nfa, n, cached);
    ASSERT_TRUE(memo.ok());
    ASSERT_TRUE(memo->ExtendTo(n).ok());
    const int64_t build_entries = memo->engine().descent_cache().entries();
    for (int level = 0; level <= n; ++level) {
      Result<double> c = memo->CountAtLength(level);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(*c, base_counts[static_cast<size_t>(level)])
          << "level=" << level;
    }
    Result<std::vector<Word>> memo_draws = memo->SampleWords(n, 12);
    ASSERT_TRUE(memo_draws.ok());
    EXPECT_EQ(*memo_draws, *base_draws);
    const bool uncached_leg = std::getenv("NFACOUNT_DESCENT_CACHE") != nullptr;
    if (!uncached_leg) {
      EXPECT_LT(memo->diagnostics().appunion_calls,
                baseline->diagnostics().appunion_calls);
      EXPECT_GT(memo->engine().descent_cache().union_entries(), 0);
    }
    const int64_t mid_build = std::max<int64_t>(1, build_entries / 2);

    const int64_t capacities[] = {0, 4, mid_build, int64_t{1} << 20};
    const int thread_counts[] = {1, 4};
    const int widths[] = {1, 32};
    for (int64_t capacity : capacities) {
      for (int threads : thread_counts) {
        for (int width : widths) {
          CountOptions opts = gc.options;
          opts.descent_cache_capacity = capacity;
          opts.num_threads = threads;
          std::unique_ptr<FprasEngine> engine =
              EngineAtWidth(nfa, n, opts, width);
          ASSERT_NE(engine, nullptr)
              << "capacity=" << capacity << " threads=" << threads
              << " width=" << width;
          ASSERT_TRUE(engine->RunToLevel(n).ok());
          if (capacity == mid_build && !uncached_leg) {
            // The budget ran out during the build, with union entries
            // admitted before it: later memo inserts were refused.
            EXPECT_EQ(engine->descent_cache().entries(), mid_build);
            EXPECT_GT(engine->descent_cache().union_entries(), 0);
          }
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

TEST(DescentCacheIdentity, EveryAdmittedRowIsThePredecessorExpansion) {
  // The walk copies a drawn class's row straight out of the entry, so each
  // stored row must be exactly the class's predecessor expansion.
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    Result<EngineSession> session =
        EngineSession::Create(gc.nfa, gc.n, gc.options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->SampleWords(gc.n, 16).ok());
    const FprasEngine& engine = session->engine();
    const UnrolledNfa& unrolled = engine.unrolled();
    const SymbolClassIndex& classes = unrolled.symbol_classes();
    const size_t row_words =
        (static_cast<size_t>(gc.nfa.num_states()) + 63) / 64;
    Bitset expected(static_cast<size_t>(gc.nfa.num_states()));
    int64_t checked = 0;
    bool high_word_used = false;  // some row reaches a state id >= 64
    engine.descent_cache().ForEachEntry([&](const DescentEntry& entry) {
      ASSERT_EQ(entry.set.size(), row_words);
      ASSERT_EQ(entry.rows.size(),
                static_cast<size_t>(classes.num_classes()) * row_words);
      for (int c = 0; c < classes.num_classes(); ++c) {
        unrolled.PredSetInto(
            Bitset::FromWords(static_cast<size_t>(gc.nfa.num_states()),
                              entry.set.data()),
            classes.Representative(c), entry.level, &expected);
        for (size_t k = 0; k < row_words; ++k) {
          EXPECT_EQ(entry.Row(c)[k], expected.words()[k])
              << "level=" << entry.level << " class=" << c << " word=" << k;
          if (k > 0 && expected.words()[k] != 0) high_word_used = true;
        }
      }
      ++checked;
    });
    EXPECT_EQ(checked + engine.descent_cache().union_entries(),
              engine.diagnostics().descent_entries);
    if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
      EXPECT_GT(checked, 0);
      if (row_words > 1) {
        EXPECT_TRUE(high_word_used);
      }
    }
  }
}

TEST(DescentCacheIdentity, EveryChildLinkIsTheHashedChild) {
  // A walk step that follows link c of entry (ℓ, P) skips the probe of
  // (ℓ − 1, Row(c)), so the link must be exactly the entry that probe finds.
  // Admitted keys are unique (first writer wins), so indexing the entries
  // by key gives what Find(ℓ − 1, Row(c)) returns.
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    Result<EngineSession> session =
        EngineSession::Create(gc.nfa, gc.n, gc.options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->SampleWords(gc.n, 16).ok());
    const int num_classes =
        session->engine().unrolled().symbol_classes().num_classes();
    using Key = std::pair<int, std::vector<uint64_t>>;
    std::map<Key, const DescentEntry*> by_key;
    std::vector<const DescentEntry*> entries;
    session->engine().descent_cache().ForEachEntry(
        [&](const DescentEntry& entry) {
          EXPECT_TRUE(by_key.emplace(Key{entry.level, entry.set}, &entry)
                          .second)
              << "duplicate key at level " << entry.level;
          entries.push_back(&entry);
        });
    int64_t links = 0;
    for (const DescentEntry* entry : entries) {
      for (int c = 0; c < num_classes; ++c) {
        const DescentEntry* child =
            entry->Link(c).load(std::memory_order_acquire);
        if (child == nullptr) continue;
        ++links;
        const Key key{entry->level - 1,
                      std::vector<uint64_t>(
                          entry->Row(c), entry->Row(c) + entry->set.size())};
        const auto it = by_key.find(key);
        ASSERT_NE(it, by_key.end())
            << "level=" << entry->level << " class=" << c;
        EXPECT_EQ(child, it->second)
            << "level=" << entry->level << " class=" << c;
      }
    }
    if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
      EXPECT_GT(links, 0);
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
  // Every frontier entry was admitted after a probe missed.
  EXPECT_GE(diag.descent_misses,
            diag.descent_entries -
                session->engine().descent_cache().union_entries());
  // An entry carries its rows, so the walk makes one lookup (a probe or a
  // followed link) per group per level and the two counter pairs agree.
  EXPECT_EQ(diag.descent_hits, diag.memo_hits);
  EXPECT_EQ(diag.descent_misses, diag.memo_misses);
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
