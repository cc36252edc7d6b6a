// Serve-mode registry: concurrent readers against an extending writer must
// be invisible in every result — every answer the registry ever gives, under
// any thread interleaving, knob combination, or demote/revive cycle, equals
// the single-threaded EngineSession answer at the same (nfa, horizon, eps,
// delta, seed) point, bit for bit. Runs under TSan in CI: these tests are
// also the data-race probe for the whole serve seam.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "fpras/fpras.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using serve::RegistryOptions;
using serve::ServeClient;
using serve::ServeDaemon;
using serve::ServerOptions;
using serve::SessionRegistry;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

/// A deterministic small automaton in the io.hpp text format.
std::string TestNfaText(uint64_t seed, int m) {
  Rng rng(seed);
  return NfaToText(RandomNfa(m, 0.3, 0.3, rng));
}

/// The single-threaded reference: a fresh EngineSession at the same
/// parameter point the registry uses for (seed, eps, delta, horizon).
EngineSession ReferenceSession(const std::string& nfa_text, int horizon,
                               uint64_t seed) {
  Result<Nfa> nfa = ParseNfaText(nfa_text);
  EXPECT_TRUE(nfa.ok());
  CountOptions opts = SessionTestOptions(seed);
  Result<EngineSession> session =
      EngineSession::Create(nfa.value(), horizon, opts);
  EXPECT_TRUE(session.ok());
  return std::move(session).value();
}

TEST(Serve, RegistryAnswersMatchSessionBitIdentical) {
  const int kHorizon = 8;
  const std::string text = TestNfaText(TestSeed(901), 6);
  EngineSession reference = ReferenceSession(text, kHorizon, TestSeed(902));

  SessionRegistry registry((RegistryOptions()));
  ASSERT_TRUE(
      registry.Register("s", text, kHorizon, TestSeed(902), 0.3, 0.2).ok());
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> got = registry.CountAtLength("s", length);
    Result<double> want = reference.CountAtLength(length);
    ASSERT_TRUE(got.ok() && want.ok()) << "length=" << length;
    EXPECT_EQ(*want, *got) << "length=" << length;
  }
  // Per-state counts go through the same shared surface.
  for (StateId q = 0; q < 6; ++q) {
    Result<double> got = registry.CountFor("s", q, kHorizon);
    Result<double> want = reference.CountFor(q, kHorizon);
    ASSERT_TRUE(got.ok() && want.ok()) << "q=" << q;
    EXPECT_EQ(*want, *got) << "q=" << q;
  }
}

TEST(Serve, RegistryRejectsBadNamesDuplicatesAndUnknowns) {
  SessionRegistry registry((RegistryOptions()));
  const std::string text = TestNfaText(TestSeed(911), 5);

  EXPECT_EQ(StatusCode::kInvalidArgument,
            registry.Register("", text, 4, 1, 0.3, 0.2).code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            registry.Register("../evil", text, 4, 1, 0.3, 0.2).code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            registry.Register("has space", text, 4, 1, 0.3, 0.2).code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            registry.Register(std::string(129, 'a'), text, 4, 1, 0.3, 0.2)
                .code());

  ASSERT_TRUE(registry.Register("ok-name_1.x", text, 4, 1, 0.3, 0.2).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            registry.Register("ok-name_1.x", text, 4, 1, 0.3, 0.2).code());
  EXPECT_EQ(StatusCode::kNotFound,
            registry.CountAtLength("missing", 2).status().code());
}

// The tentpole invariant: N reader threads answer counts and draws against
// the shared prefix while one writer extends the horizon, across the
// knob grid (worker threads × batch width × descent cache), and every
// single answer is bit-identical to the single-threaded session. In the
// multi-threaded configs reader 0 draws wide chunks first, so its parallel
// draw windows run on the draw pool while the writer's sweep runs on its
// own pool.
TEST(Serve, ConcurrentReadersVsExtendingWriterGrid) {
  struct Config {
    int num_threads;
    int batch_width;
    int64_t descent_capacity;  // 0 disables the descent cache
  };
  const Config kGrid[] = {
      {1, 0, -1},
      {2, 8, -1},
      {2, 0, 0},
  };
  const int kHorizon = 8;
  const int kReaders = 3;
  const int kSampleLength = 5;
  const int kChunk = 2;
  const int kWideChunk = 64;  // several draw batches per thread
  const int kChunksPerReader = 4;

  const std::string text = TestNfaText(TestSeed(921), 6);
  EngineSession reference =
      ReferenceSession(text, kHorizon, TestSeed(922));
  std::vector<double> want_counts(kHorizon + 1);
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> want = reference.CountAtLength(length);
    ASSERT_TRUE(want.ok());
    want_counts[static_cast<size_t>(length)] = *want;
  }
  // The draw stream is chunk-invariant, so every config's words are a
  // prefix of one reference draw.
  const int kMaxWords =
      ((kReaders - 1) * kChunk + kWideChunk) * kChunksPerReader;
  Result<std::vector<Word>> want_words =
      reference.SampleWords(kSampleLength, kMaxWords);
  ASSERT_TRUE(want_words.ok());

  for (const Config& config : kGrid) {
    RegistryOptions options;
    options.knobs.num_threads = config.num_threads;
    options.knobs.batch_width = config.batch_width;
    options.knobs.descent_cache_capacity = config.descent_capacity;
    SessionRegistry registry(options);
    ASSERT_TRUE(
        registry.Register("s", text, kHorizon, TestSeed(922), 0.3, 0.2).ok());

    std::atomic<bool> failed{false};
    // Each reader's chunks, tagged with their draw-stream start cursor.
    std::vector<std::vector<std::pair<int64_t, std::vector<Word>>>> chunks(
        kReaders);

    std::thread writer([&] {
      for (int level = 1; level <= kHorizon; ++level) {
        Result<int> computed = registry.ExtendTo("s", level);
        if (!computed.ok() || computed.value() < level) failed.store(true);
      }
    });
    std::vector<std::thread> readers;
    for (int reader = 0; reader < kReaders; ++reader) {
      readers.emplace_back([&, reader] {
        const bool wide = reader == 0 && config.num_threads > 1;
        const int chunk_words = wide ? kWideChunk : kChunk;
        const auto draw_chunks = [&] {
          for (int i = 0; i < kChunksPerReader; ++i) {
            int64_t cursor = 0;
            Result<std::vector<Word>> words = registry.SampleWords(
                "s", kSampleLength, chunk_words, &cursor);
            if (!words.ok() ||
                words.value().size() != static_cast<size_t>(chunk_words)) {
              failed.store(true);
              continue;
            }
            chunks[static_cast<size_t>(reader)].emplace_back(
                cursor, std::move(words).value());
          }
        };
        if (wide) draw_chunks();
        // Counts at every length, racing the writer: lengths past the
        // published prefix take the writer path and extend themselves.
        for (int pass = 0; pass < 2; ++pass) {
          for (int length = 0; length <= kHorizon; ++length) {
            const int probe = (length + reader + pass) % (kHorizon + 1);
            Result<double> got = registry.CountAtLength("s", probe);
            if (!got.ok() ||
                *got != want_counts[static_cast<size_t>(probe)]) {
              failed.store(true);
            }
          }
        }
        if (!wide) draw_chunks();
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    EXPECT_FALSE(failed.load())
        << "threads=" << config.num_threads
        << " batch=" << config.batch_width
        << " descent=" << config.descent_capacity;

    // The draw stream is chunk-invariant: the concurrent chunks, ordered by
    // their cursor ranges, are exactly the single-threaded draw sequence.
    std::map<int64_t, std::vector<Word>> by_cursor;
    for (auto& reader_chunks : chunks) {
      for (auto& chunk : reader_chunks) {
        EXPECT_TRUE(
            by_cursor.emplace(chunk.first, std::move(chunk.second)).second)
            << "duplicate draw cursor " << chunk.first;
      }
    }
    std::vector<Word> got_words;
    for (auto& entry : by_cursor) {
      for (Word& word : entry.second) got_words.push_back(std::move(word));
    }
    const size_t total_words =
        static_cast<size_t>(config.num_threads > 1 ? kMaxWords
                                                   : kReaders * kChunk *
                                                         kChunksPerReader);
    ASSERT_EQ(total_words, got_words.size());
    for (size_t i = 0; i < got_words.size(); ++i) {
      EXPECT_EQ((*want_words)[i], got_words[i]) << "draw index " << i;
    }
  }
}

// Demote-to-checkpoint and transparent revival must preserve everything:
// counts, per-state counts, and the draw-stream position.
TEST(Serve, EvictionReviveRoundTripBitIdentical) {
  const int kHorizon = 7;
  const std::string text_a = TestNfaText(TestSeed(931), 6);
  const std::string text_b = TestNfaText(TestSeed(932), 5);
  EngineSession reference = ReferenceSession(text_a, kHorizon, TestSeed(933));

  RegistryOptions options;
  options.spill_dir = ::testing::TempDir();
  // A budget no resident session fits under: every EnforceBudget pass
  // demotes whatever is idle, so queries constantly revive from disk.
  options.memory_budget_bytes = 1;
  SessionRegistry registry(options);
  ASSERT_TRUE(
      registry.Register("a", text_a, kHorizon, TestSeed(933), 0.3, 0.2).ok());
  ASSERT_TRUE(
      registry.Register("b", text_b, kHorizon, TestSeed(934), 0.3, 0.2).ok());

  // Alternate sessions so each query revives a demoted slot.
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> got = registry.CountAtLength("a", length);
    Result<double> want = reference.CountAtLength(length);
    ASSERT_TRUE(got.ok() && want.ok()) << "length=" << length;
    EXPECT_EQ(*want, *got) << "length=" << length;
    ASSERT_TRUE(registry.CountAtLength("b", length).ok());
  }
  EXPECT_GT(registry.demotions(), 0);
  // A NFACOUNT_FAILPOINTS chaos schedule may force every revive onto the
  // recompute path (counts above stay bit-identical regardless — that is
  // the point); revive counters and checkpoint-carried draw cursors are
  // only meaningful without one.
  if (failpoint::EnvScheduleActive()) return;
  EXPECT_GT(registry.revives(), 0);

  // Draw-stream continuity across an explicit evict: 2 words, demote +
  // revive, 2 more words — one uninterrupted 4-word reference sequence.
  Result<std::vector<Word>> want_words = reference.SampleWords(4, 4);
  ASSERT_TRUE(want_words.ok());
  Result<std::vector<Word>> first = registry.SampleWords("a", 4, 2);
  ASSERT_TRUE(first.ok());
  Result<bool> evicted = registry.Evict("a");
  ASSERT_TRUE(evicted.ok());
  Result<std::vector<Word>> second = registry.SampleWords("a", 4, 2);
  ASSERT_TRUE(second.ok());
  std::vector<Word> got_words = std::move(first).value();
  for (Word& word : second.value()) got_words.push_back(std::move(word));
  ASSERT_EQ(want_words->size(), got_words.size());
  for (size_t i = 0; i < got_words.size(); ++i) {
    EXPECT_EQ((*want_words)[i], got_words[i]) << "draw index " << i;
  }
}

TEST(Serve, EvictWithoutSpillDirIsFailedPrecondition) {
  SessionRegistry registry((RegistryOptions()));
  const std::string text = TestNfaText(TestSeed(941), 5);
  ASSERT_TRUE(registry.Register("s", text, 4, 1, 0.3, 0.2).ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            registry.Evict("s").status().code());
  // Without a spill dir nothing is ever demoted, budget or not.
  EXPECT_TRUE(registry.CountAtLength("s", 4).ok());
  EXPECT_EQ(0, registry.demotions());
}

// A corrupted checkpoint must never take down the daemon OR the session:
// the revive path quarantines the bad file (<name>.ckpt.corrupt) and
// transparently recomputes the session from its registration tuple, so the
// query succeeds — bit-identical to the pre-corruption answer — and other
// sessions never notice.
TEST(Serve, ReviveFromCorruptedCheckpointQuarantinesAndRecomputes) {
  const int kHorizon = 6;
  const std::string text = TestNfaText(TestSeed(951), 6);
  RegistryOptions options;
  options.spill_dir = ::testing::TempDir();
  SessionRegistry registry(options);
  ASSERT_TRUE(
      registry.Register("frail", text, kHorizon, TestSeed(952), 0.3, 0.2)
          .ok());
  ASSERT_TRUE(
      registry.Register("hale", text, kHorizon, TestSeed(953), 0.3, 0.2)
          .ok());
  Result<double> want = registry.CountAtLength("frail", kHorizon);
  ASSERT_TRUE(want.ok());

  ServeDaemon daemon(&registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  Result<bool> evicted = client->Evict("frail");
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted.value());

  // Truncate the checkpoint: the trailer checksum can no longer verify.
  const std::string ckpt = options.spill_dir + "/frail.ckpt";
  {
    std::FILE* f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(nullptr, f);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 16);
    ASSERT_EQ(0, std::fclose(f));
    ASSERT_EQ(0, ::truncate(ckpt.c_str(), size / 2));
  }

  Result<double> got = client->CountAtLength("frail", kHorizon);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want.value(), got.value());
  EXPECT_EQ(1, registry.checkpoints_quarantined());
  EXPECT_GE(registry.recomputes(), 1);
  // The bad file moved aside for postmortems instead of being clobbered.
  std::FILE* corrupt = std::fopen((ckpt + ".corrupt").c_str(), "rb");
  EXPECT_NE(nullptr, corrupt);
  if (corrupt != nullptr) std::fclose(corrupt);
  // Same connection, same daemon: everything else is untouched.
  EXPECT_TRUE(client->CountAtLength("hale", kHorizon).ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
}

// End-to-end over the socket: daemon answers equal the in-process registry
// reference, concurrently from several client connections.
TEST(Serve, DaemonAnswersBitIdenticalAcrossConcurrentClients) {
  const int kHorizon = 7;
  const std::string text = TestNfaText(TestSeed(961), 6);
  EngineSession reference = ReferenceSession(text, kHorizon, TestSeed(962));
  std::vector<double> want_counts(kHorizon + 1);
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> want = reference.CountAtLength(length);
    ASSERT_TRUE(want.ok());
    want_counts[static_cast<size_t>(length)] = *want;
  }

  SessionRegistry registry((RegistryOptions()));
  ServeDaemon daemon(&registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  {
    Result<ServeClient> admin = ServeClient::Connect(daemon.port());
    ASSERT_TRUE(admin.ok());
    serve::RegisterRequest req;
    req.name = "s";
    req.nfa_text = text;
    req.horizon = kHorizon;
    req.seed = TestSeed(962);
    req.eps = 0.3;
    req.delta = 0.2;
    ASSERT_TRUE(admin->Register(req).ok());
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Result<ServeClient> client = ServeClient::Connect(daemon.port());
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      for (int length = 0; length <= kHorizon; ++length) {
        const int probe = (length + c) % (kHorizon + 1);
        Result<double> got = client->CountAtLength("s", probe);
        if (!got.ok() || *got != want_counts[static_cast<size_t>(probe)]) {
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load());
  daemon.Stop();
}

}  // namespace
}  // namespace nfacount
