// Durability & crash recovery for serve mode (docs/ARCHITECTURE.md
// "Durability & crash recovery"): the MANIFEST journal's torn-tail and
// compaction behavior, SessionRegistry::Recover()'s revive / quarantine /
// recompute fallback chain, graceful drain, overload shedding with client
// retry, and a TSan-safe in-process chaos scenario (a real kill -9 version
// runs in CI's chaos-smoke job; process-level SIGKILL plus threads is
// undefined under TSan, so here the "crash" is dropping a registry without
// SaveAll — byte-for-byte the same disk state a SIGKILL leaves).
//
// Bit-identity assertions that a NFACOUNT_FAILPOINTS chaos schedule
// legitimately perturbs (checkpoint-carried draw cursors when the schedule
// forces the recompute path) are guarded with EnvScheduleActive(); counts
// are asserted unconditionally — no schedule may ever change an estimate.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "fpras/fpras.hpp"
#include "serve/client.hpp"
#include "serve/manifest.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "test_seed.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using serve::ManifestJournal;
using serve::ManifestRecord;
using serve::RegistryOptions;
using serve::RetryPolicy;
using serve::ServeClient;
using serve::ServeDaemon;
using serve::ServerOptions;
using serve::SessionRegistry;
using testing_support::TestSeed;

/// A fresh, empty per-test spill directory (prior runs' leftovers removed).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "nfarecovery_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  EXPECT_FALSE(ec) << "cannot create " << dir;
  return dir;
}

/// A deterministic small automaton in the io.hpp text format.
std::string TestNfaText(uint64_t seed, int m) {
  Rng rng(seed);
  return NfaToText(RandomNfa(m, 0.3, 0.3, rng));
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  return static_cast<int64_t>(std::filesystem::file_size(path, ec));
}

ManifestRecord TestRecord(const std::string& name, uint64_t seed) {
  ManifestRecord record;
  record.name = name;
  record.nfa_text = TestNfaText(seed, 4);
  record.horizon = 5;
  record.seed = seed;
  record.eps = 0.25;
  record.delta = 0.125;
  record.flags = serve::kManifestFlagReserved;
  return record;
}

// ---------------------------------------------------------------------------
// ManifestJournal unit tests
// ---------------------------------------------------------------------------

TEST(Manifest, RoundTripsRecordsExactly) {
  const std::string dir = FreshDir("roundtrip");
  {
    Result<ManifestJournal> opened = ManifestJournal::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ManifestJournal journal = std::move(opened).value();
    ASSERT_TRUE(journal.AppendRegister(TestRecord("a", 11)).ok());
    ASSERT_TRUE(journal.AppendRegister(TestRecord("b", 22)).ok());
    EXPECT_EQ(2u, journal.live().size());
  }
  Result<ManifestJournal> reopened = ManifestJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  const ManifestJournal& journal = reopened.value();
  EXPECT_EQ(2, journal.replayed_records());
  EXPECT_EQ(0, journal.dropped_tail_bytes());
  ASSERT_EQ(2u, journal.live().size());
  const ManifestRecord want = TestRecord("b", 22);
  const ManifestRecord& got = journal.live().at("b");
  EXPECT_EQ(want.nfa_text, got.nfa_text);
  EXPECT_EQ(want.horizon, got.horizon);
  EXPECT_EQ(want.seed, got.seed);
  EXPECT_EQ(want.eps, got.eps);
  EXPECT_EQ(want.delta, got.delta);
  EXPECT_EQ(want.flags, got.flags);
}

TEST(Manifest, TruncatedTailIsDroppedAndHealed) {
  const std::string dir = FreshDir("torntail");
  {
    Result<ManifestJournal> opened = ManifestJournal::Open(dir);
    ASSERT_TRUE(opened.ok());
    ManifestJournal journal = std::move(opened).value();
    ASSERT_TRUE(journal.AppendRegister(TestRecord("keep1", 1)).ok());
    ASSERT_TRUE(journal.AppendRegister(TestRecord("keep2", 2)).ok());
    ASSERT_TRUE(journal.AppendRegister(TestRecord("torn", 3)).ok());
  }
  // Cut into the last record: the classic crash-mid-append shape.
  const std::string path = dir + "/MANIFEST";
  const int64_t size = FileSize(path);
  ASSERT_GT(size, 8);
  ASSERT_EQ(0, ::truncate(path.c_str(), size - 5));

  Result<ManifestJournal> reopened = ManifestJournal::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ManifestJournal journal = std::move(reopened).value();
  EXPECT_EQ(2u, journal.live().size());
  EXPECT_EQ(1u, journal.live().count("keep1"));
  EXPECT_EQ(1u, journal.live().count("keep2"));
  EXPECT_EQ(0u, journal.live().count("torn"));
  EXPECT_GT(journal.dropped_tail_bytes(), 0);
  // The torn bytes were compacted away; appending works and a third open
  // sees a clean file with all three records.
  ASSERT_TRUE(journal.AppendRegister(TestRecord("torn", 3)).ok());
  Result<ManifestJournal> third = ManifestJournal::Open(dir);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(3u, third.value().live().size());
  EXPECT_EQ(0, third.value().dropped_tail_bytes());
}

TEST(Manifest, CompactionKeepsOnlyLiveRecords) {
  const std::string dir = FreshDir("compact");
  {
    Result<ManifestJournal> opened = ManifestJournal::Open(dir);
    ASSERT_TRUE(opened.ok());
    ManifestJournal journal = std::move(opened).value();
    ASSERT_TRUE(journal.AppendRegister(TestRecord("a", 1)).ok());
    ASSERT_TRUE(journal.AppendRegister(TestRecord("b", 2)).ok());
    ASSERT_TRUE(journal.AppendRegister(TestRecord("c", 3)).ok());
    ASSERT_TRUE(journal.AppendUnregister("b").ok());
    EXPECT_EQ(2u, journal.live().size());
    const int64_t before = FileSize(dir + "/MANIFEST");
    ASSERT_TRUE(journal.Compact().ok());
    EXPECT_LT(FileSize(dir + "/MANIFEST"), before);
    EXPECT_FALSE(FileExists(dir + "/MANIFEST.tmp"));
  }
  Result<ManifestJournal> reopened = ManifestJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(2, reopened.value().replayed_records());
  EXPECT_EQ(2u, reopened.value().live().size());
  EXPECT_EQ(1u, reopened.value().live().count("a"));
  EXPECT_EQ(1u, reopened.value().live().count("c"));
}

TEST(Manifest, UnregisterForUnknownNameIsHarmlessTombstone) {
  const std::string dir = FreshDir("tombstone");
  Result<ManifestJournal> opened = ManifestJournal::Open(dir);
  ASSERT_TRUE(opened.ok());
  ManifestJournal journal = std::move(opened).value();
  ASSERT_TRUE(journal.AppendUnregister("ghost").ok());
  EXPECT_EQ(0u, journal.live().size());
}

// ---------------------------------------------------------------------------
// Registry durability
// ---------------------------------------------------------------------------

TEST(Recovery, RecoverNeedsSpillDirAndEmptyRegistry) {
  SessionRegistry no_dir((RegistryOptions()));
  EXPECT_EQ(StatusCode::kFailedPrecondition, no_dir.Recover().code());

  RegistryOptions options;
  options.spill_dir = FreshDir("precond");
  SessionRegistry populated(options);
  ASSERT_TRUE(populated
                  .Register("s", TestNfaText(TestSeed(1301), 5), 4,
                            TestSeed(1302), 0.3, 0.2)
                  .ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, populated.Recover().code());
}

TEST(Recovery, SweepsOrphanedTmpFilesAtConstruction) {
  const std::string dir = FreshDir("tmpsweep");
  {
    std::FILE* f = std::fopen((dir + "/ghost.ckpt.tmp").c_str(), "wb");
    ASSERT_NE(nullptr, f);
    std::fputs("half a checkpoint", f);
    std::fclose(f);
    f = std::fopen((dir + "/other.ckpt.tmp").c_str(), "wb");
    ASSERT_NE(nullptr, f);
    std::fclose(f);
    f = std::fopen((dir + "/keep.ckpt").c_str(), "wb");
    ASSERT_NE(nullptr, f);
    std::fclose(f);
  }
  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry registry(options);
  EXPECT_EQ(2, registry.tmp_swept());
  EXPECT_FALSE(FileExists(dir + "/ghost.ckpt.tmp"));
  EXPECT_FALSE(FileExists(dir + "/other.ckpt.tmp"));
  EXPECT_TRUE(FileExists(dir + "/keep.ckpt"));
}

// The centerpiece: a crash between operations loses nothing that was
// durable. Counts after Recover() are bit-identical to an uninterrupted
// run, and the draw stream continues exactly where the last checkpoint put
// its cursor.
TEST(Recovery, RecoverAfterCrashIsBitIdentical) {
  const int kHorizon = 8;
  const std::string text = TestNfaText(TestSeed(1311), 6);
  const uint64_t seed = TestSeed(1312);
  const std::string dir = FreshDir("bitident");

  // Uninterrupted reference: same tuple, no crash, 5 + 5 draws.
  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(reference.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
  std::vector<double> want_counts(static_cast<size_t>(kHorizon) + 1);
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> want = reference.CountAtLength("s", length);
    ASSERT_TRUE(want.ok());
    want_counts[static_cast<size_t>(length)] = *want;
  }
  Result<std::vector<Word>> first5 = reference.SampleWords("s", kHorizon, 5);
  Result<std::vector<Word>> second5 = reference.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(first5.ok());
  ASSERT_TRUE(second5.ok());

  {  // The doomed daemon: register, query, draw 5, checkpoint, "crash".
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry doomed(options);
    ASSERT_TRUE(doomed.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
    Result<double> got = doomed.CountAtLength("s", kHorizon);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want_counts[static_cast<size_t>(kHorizon)], got.value());
    Result<std::vector<Word>> got5 = doomed.SampleWords("s", kHorizon, 5);
    ASSERT_TRUE(got5.ok());
    EXPECT_EQ(first5.value(), got5.value());
    ASSERT_TRUE(doomed.Evict("s").ok());  // durable: ckpt carries cursor 5
  }  // no SaveAll, no farewell — the disk now looks exactly post-SIGKILL

  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(1, revived.sessions_recovered());
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> got = revived.CountAtLength("s", length);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want_counts[static_cast<size_t>(length)], got.value())
        << "length " << length;
  }
  if (!failpoint::EnvScheduleActive()) {
    // The checkpoint carried the draw cursor: the next 5 draws are the
    // reference's draws 5..9. (A chaos schedule that forces the recompute
    // path legitimately resets the cursor, hence the guard.)
    Result<std::vector<Word>> got5 = revived.SampleWords("s", kHorizon, 5);
    ASSERT_TRUE(got5.ok());
    EXPECT_EQ(second5.value(), got5.value());
    EXPECT_EQ(0, revived.checkpoints_quarantined());
  }
}

// Deleting the checkpoint behind a recovered registry's back must cost a
// recompute, never the session: counts stay bit-identical (the tuple is a
// complete recipe) and the draw stream restarts at the cursor the lost
// checkpoint would have carried from birth — zero.
TEST(Recovery, RecomputesBitIdenticalWhenCheckpointDeleted) {
  const int kHorizon = 7;
  const std::string text = TestNfaText(TestSeed(1321), 6);
  const uint64_t seed = TestSeed(1322);
  const std::string dir = FreshDir("recompute");

  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(reference.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
  Result<double> want = reference.CountAtLength("s", kHorizon);
  Result<std::vector<Word>> want5 = reference.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want5.ok());

  {
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry doomed(options);
    ASSERT_TRUE(doomed.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
    ASSERT_TRUE(doomed.CountAtLength("s", kHorizon).ok());
    ASSERT_TRUE(doomed.SampleWords("s", kHorizon, 3).ok());
    ASSERT_TRUE(doomed.Evict("s").ok());
  }
  ASSERT_EQ(0, std::remove((dir + "/s.ckpt").c_str()));

  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  Result<double> got = revived.CountAtLength("s", kHorizon);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want.value(), got.value());
  EXPECT_GE(revived.recomputes(), 1);
  Result<std::vector<Word>> got5 = revived.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(got5.ok());
  EXPECT_EQ(want5.value(), got5.value());  // cursor restarted at 0
}

// MANIFEST flag bit 0 is reserved (it once recorded the symbol-class
// switch): a record with the bit clear, as a class-off daemon of an older
// build journaled it, still recovers, and the rebuilt session answers
// exactly what a fresh registration of the same tuple answers.
TEST(Recovery, ManifestRecordWithFlagBitClearRecovers) {
  const int kHorizon = 5;
  // A compressed alphabet (3 distinct rows over 16 symbols), where honoring
  // the cleared bit would rebuild a different session.
  const std::string text = NfaToText(CorpusTokenNfa(3, 16, 3));
  const uint64_t seed = TestSeed(1331);
  const std::string dir = FreshDir("flagclear");
  {
    Result<ManifestJournal> opened = ManifestJournal::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ManifestJournal journal = std::move(opened).value();
    ManifestRecord record = TestRecord("s", seed);
    record.nfa_text = text;
    record.horizon = kHorizon;
    record.flags = 0;
    ASSERT_TRUE(journal.AppendRegister(record).ok());
  }

  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(reference.Register("s", text, kHorizon, seed, 0.25, 0.125).ok());
  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(1, revived.sessions_recovered());
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> want = reference.CountAtLength("s", length);
    Result<double> got = revived.CountAtLength("s", length);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want.value(), got.value()) << "length " << length;
  }
  Result<std::vector<Word>> want5 = reference.SampleWords("s", kHorizon, 5);
  Result<std::vector<Word>> got5 = revived.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(want5.ok());
  ASSERT_TRUE(got5.ok());
  EXPECT_EQ(want5.value(), got5.value());
}

// A corrupt checkpoint found during Recover() is quarantined to
// <name>.ckpt.corrupt (kept for postmortems) and the session recomputes.
TEST(Recovery, QuarantinesCorruptCheckpointAndRecomputes) {
  const int kHorizon = 6;
  const std::string text = TestNfaText(TestSeed(1331), 6);
  const uint64_t seed = TestSeed(1332);
  const std::string dir = FreshDir("quarantine");

  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(reference.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
  Result<double> want = reference.CountAtLength("s", kHorizon);
  ASSERT_TRUE(want.ok());

  {
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry doomed(options);
    ASSERT_TRUE(doomed.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
    ASSERT_TRUE(doomed.CountAtLength("s", kHorizon).ok());
    ASSERT_TRUE(doomed.Evict("s").ok());
  }
  const std::string ckpt = dir + "/s.ckpt";
  const int64_t size = FileSize(ckpt);
  ASSERT_GT(size, 16);
  ASSERT_EQ(0, ::truncate(ckpt.c_str(), size / 2));

  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(1, revived.sessions_recovered());
  EXPECT_EQ(1, revived.checkpoints_quarantined());
  EXPECT_FALSE(FileExists(ckpt));
  EXPECT_TRUE(FileExists(ckpt + ".corrupt"));
  Result<double> got = revived.CountAtLength("s", kHorizon);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want.value(), got.value());
  EXPECT_GE(revived.recomputes(), 1);
}

// Unregister must be durable (the tombstone survives a crash) and the name
// must be reusable — with the NEW tuple winning after recovery.
TEST(Recovery, ReRegisterAfterUnregisterSurvivesCrash) {
  const int kHorizon = 6;
  const std::string text = TestNfaText(TestSeed(1341), 5);
  const uint64_t old_seed = TestSeed(1342);
  const uint64_t new_seed = TestSeed(1343);
  const std::string dir = FreshDir("reregister");

  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(
      reference.Register("dup", text, kHorizon, new_seed, 0.3, 0.2).ok());
  Result<double> want = reference.CountAtLength("dup", kHorizon);
  ASSERT_TRUE(want.ok());

  {
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry doomed(options);
    ASSERT_TRUE(
        doomed.Register("dup", text, kHorizon, old_seed, 0.3, 0.2).ok());
    ASSERT_TRUE(doomed.CountAtLength("dup", kHorizon).ok());
    // Duplicate while live is still rejected.
    EXPECT_FALSE(
        doomed.Register("dup", text, kHorizon, new_seed, 0.3, 0.2).ok());
    ASSERT_TRUE(doomed.Unregister("dup").ok());
    EXPECT_EQ(StatusCode::kNotFound,
              doomed.CountAtLength("dup", kHorizon).status().code());
    ASSERT_TRUE(
        doomed.Register("dup", text, kHorizon, new_seed, 0.3, 0.2).ok());
  }

  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(1, revived.sessions_recovered());
  Result<double> got = revived.CountAtLength("dup", kHorizon);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want.value(), got.value());  // the re-registration's tuple won
}

// A manifest append failure must fail the Register cleanly (nothing
// half-registered), and the journal must heal for the next append — even
// when the failure was a crash-like torn write.
TEST(Recovery, FailedManifestAppendFailsRegisterCleanly) {
  const std::string text = TestNfaText(TestSeed(1351), 5);
  const std::string dir = FreshDir("tornappend");
  {
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry registry(options);

    ASSERT_TRUE(failpoint::Set("manifest.append", "error:1").ok());
    EXPECT_FALSE(
        registry.Register("a", text, 5, TestSeed(1352), 0.3, 0.2).ok());
    EXPECT_EQ(StatusCode::kNotFound,
              registry.CountAtLength("a", 0).status().code());

    // Torn write: bytes really land on disk, then the append "crashes".
    ASSERT_TRUE(failpoint::Set("manifest.append", "short-write(7):1").ok());
    EXPECT_FALSE(
        registry.Register("b", text, 5, TestSeed(1353), 0.3, 0.2).ok());
    failpoint::ClearAll();
    EXPECT_GE(failpoint::Hits("manifest.append"), 2);

    // Both names are free and the healed journal accepts appends.
    ASSERT_TRUE(
        registry.Register("a", text, 5, TestSeed(1352), 0.3, 0.2).ok());
    ASSERT_TRUE(
        registry.Register("b", text, 5, TestSeed(1353), 0.3, 0.2).ok());
    EXPECT_TRUE(registry.CountAtLength("a", 5).ok());
  }
  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(2, revived.sessions_recovered());
  EXPECT_TRUE(revived.CountAtLength("a", 5).ok());
  EXPECT_TRUE(revived.CountAtLength("b", 5).ok());
}

// The in-process chaos scenario: "SIGKILL" mid-extension — the session had
// extended well past its last checkpoint and drawn samples when the process
// dies. Recovery restarts from the last durable state and every re-asked
// answer is bit-identical; the work since the checkpoint replays, it is not
// lost or corrupted. Also arms checkpoint.write to prove a failing
// checkpoint save can never poison the durable state it would replace.
TEST(Recovery, ChaosCrashMidExtensionRecoversBitIdentical) {
  const int kCheckpointLevel = 5;
  const int kHorizon = 8;
  const std::string text = TestNfaText(TestSeed(1361), 6);
  const uint64_t seed = TestSeed(1362);
  const std::string dir = FreshDir("chaos");

  SessionRegistry reference((RegistryOptions()));
  ASSERT_TRUE(reference.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
  Result<double> want_mid = reference.CountAtLength("s", kCheckpointLevel);
  Result<double> want_full = reference.CountAtLength("s", kHorizon);
  Result<std::vector<Word>> want5 = reference.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(want_mid.ok());
  ASSERT_TRUE(want_full.ok());
  ASSERT_TRUE(want5.ok());

  {
    RegistryOptions options;
    options.spill_dir = dir;
    SessionRegistry doomed(options);
    ASSERT_TRUE(doomed.Register("s", text, kHorizon, seed, 0.3, 0.2).ok());
    ASSERT_TRUE(doomed.CountAtLength("s", kCheckpointLevel).ok());
    ASSERT_TRUE(doomed.Evict("s").ok());  // durable state: level 5, cursor 0
    const int64_t ckpt_size = FileSize(dir + "/s.ckpt");

    // Back to work: extend past the checkpoint and draw — none of this
    // becomes durable before the "crash".
    Result<double> got_full = doomed.CountAtLength("s", kHorizon);
    ASSERT_TRUE(got_full.ok());
    EXPECT_EQ(want_full.value(), got_full.value());
    ASSERT_TRUE(doomed.SampleWords("s", kHorizon, 5).ok());

    // A checkpoint attempt that dies mid-write must leave the old durable
    // state byte-identical (tmp + rename: the real file is never touched).
    ASSERT_TRUE(failpoint::Set("checkpoint.write", "short-write(40):1").ok());
    EXPECT_FALSE(doomed.Evict("s").ok());
    failpoint::ClearAll();
    EXPECT_EQ(ckpt_size, FileSize(dir + "/s.ckpt"));
    EXPECT_TRUE(doomed.CountAtLength("s", kHorizon).ok());  // still resident
  }  // SIGKILL

  RegistryOptions options;
  options.spill_dir = dir;
  SessionRegistry revived(options);
  ASSERT_TRUE(revived.Recover().ok());
  EXPECT_EQ(1, revived.sessions_recovered());
  Result<double> got_mid = revived.CountAtLength("s", kCheckpointLevel);
  Result<double> got_full = revived.CountAtLength("s", kHorizon);
  ASSERT_TRUE(got_mid.ok());
  ASSERT_TRUE(got_full.ok());
  EXPECT_EQ(want_mid.value(), got_mid.value());
  EXPECT_EQ(want_full.value(), got_full.value());
  // The checkpoint predates every draw, so the stream replays from the
  // start — the same five words, whether the checkpoint revives or a chaos
  // schedule forces a recompute (both restart the cursor at 0).
  Result<std::vector<Word>> got5 = revived.SampleWords("s", kHorizon, 5);
  ASSERT_TRUE(got5.ok());
  EXPECT_EQ(want5.value(), got5.value());
}

// ---------------------------------------------------------------------------
// Daemon: drain, shedding, retry
// ---------------------------------------------------------------------------

TEST(Drain, StopFinishesInFlightRequestsAndSavesAll) {
  const int kHorizon = 8;
  const std::string text = TestNfaText(TestSeed(1371), 6);
  const std::string dir = FreshDir("drain");
  RegistryOptions registry_options;
  registry_options.spill_dir = dir;
  SessionRegistry registry(registry_options);
  ASSERT_TRUE(
      registry.Register("d", text, kHorizon, TestSeed(1372), 0.3, 0.2).ok());

  ServerOptions server_options;
  server_options.drain_timeout_ms = 10000;
  ServeDaemon daemon(&registry, server_options);
  ASSERT_TRUE(daemon.Start().ok());

  Result<ServeClient> connected = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(connected.ok());
  ServeClient client = std::move(connected).value();
  ASSERT_TRUE(client.Ping().ok());  // the connection is fully established

  Status in_flight_result = Status::Ok();
  std::thread requester([&client, &in_flight_result] {
    // Extension work: long enough that Stop() below lands mid-request on
    // any realistic scheduler; drain must still let it finish.
    in_flight_result = client.ExtendTo("d", 8).status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  daemon.Stop();
  requester.join();

  EXPECT_TRUE(in_flight_result.ok()) << in_flight_result.ToString();
  // SaveAll ran: the session is durable on disk and no longer resident.
  EXPECT_TRUE(FileExists(dir + "/d.ckpt"));
  EXPECT_EQ(0, registry.resident_bytes());
  // A drain ran and was recorded.
  const std::string stats = daemon.StatsJson();
  EXPECT_NE(std::string::npos, stats.find("\"drain_duration_ms\""));
  EXPECT_NE(std::string::npos, stats.find("\"drained_clean\":true"));
}

TEST(Drain, WaitUntilStopRequestedForIsABoundedPoll) {
  SessionRegistry registry((RegistryOptions()));
  ServeDaemon daemon(&registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_FALSE(daemon.WaitUntilStopRequestedFor(10));
  daemon.RequestStop();
  EXPECT_TRUE(daemon.WaitUntilStopRequestedFor(1000));
  daemon.Stop();
}

TEST(Shedding, OverCapConnectionsGetUnavailableAndRetryConverges) {
  SessionRegistry registry((RegistryOptions()));
  ServerOptions server_options;
  server_options.max_connections = 1;
  // Connect-time shedding is the legacy runtime's behavior; the reactor
  // parks the listener instead (covered in test_serve_pipeline.cpp).
  server_options.legacy_threads = true;
  ServeDaemon daemon(&registry, server_options);
  ASSERT_TRUE(daemon.Start().ok());

  // Occupy the only slot.
  Result<ServeClient> first = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().Ping().ok());

  // The next connection is accepted, told Unavailable, and closed.
  Result<ServeClient> shed = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(shed.ok());  // TCP connect succeeds — shedding is a reply
  Status probe = shed.value().Ping();
  EXPECT_FALSE(probe.ok());
  EXPECT_TRUE(probe.code() == StatusCode::kUnavailable ||
              probe.code() == StatusCode::kDataLoss)
      << probe.ToString();

  // Bounded retry against a saturated daemon exhausts and reports.
  RetryPolicy short_policy;
  short_policy.max_attempts = 2;
  short_policy.base_delay_ms = 1;
  short_policy.max_delay_ms = 4;
  Result<ServeClient> exhausted =
      ServeClient::ConnectWithRetry(daemon.port(), short_policy);
  EXPECT_FALSE(exhausted.ok());

  const std::string stats = daemon.StatsJson();
  EXPECT_NE(std::string::npos, stats.find("\"connections_shed\""));

  // Free the slot mid-retry: a patient client converges.
  RetryPolicy patient;
  patient.max_attempts = 40;
  patient.base_delay_ms = 2;
  patient.max_delay_ms = 50;
  patient.seed = TestSeed(1381);
  std::thread releaser([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ServeClient discard = std::move(first).value();  // closes the socket
  });
  Result<ServeClient> eventually =
      ServeClient::ConnectWithRetry(daemon.port(), patient);
  releaser.join();
  ASSERT_TRUE(eventually.ok()) << eventually.status().ToString();
  EXPECT_TRUE(eventually.value().Ping().ok());
  daemon.Stop();
}

// End-to-end daemon restart: everything a client registered through one
// daemon is there — bit-identical — after a crash-restart onto the same
// spill directory, including over the wire.
TEST(Recovery, DaemonRestartServesRecoveredSessions) {
  const int kHorizon = 7;
  const std::string text = TestNfaText(TestSeed(1391), 6);
  const std::string dir = FreshDir("daemonrestart");

  double want = 0.0;
  {
    RegistryOptions registry_options;
    registry_options.spill_dir = dir;
    SessionRegistry registry(registry_options);
    ServeDaemon daemon(&registry, ServerOptions());
    ASSERT_TRUE(daemon.Start().ok());
    Result<ServeClient> client = ServeClient::Connect(daemon.port());
    ASSERT_TRUE(client.ok());
    serve::RegisterRequest req;
    req.name = "r";
    req.nfa_text = text;
    req.horizon = kHorizon;
    req.seed = TestSeed(1392);
    ASSERT_TRUE(client->Register(req).ok());
    Result<double> got = client->CountAtLength("r", kHorizon);
    ASSERT_TRUE(got.ok());
    want = got.value();
    ASSERT_TRUE(client->Evict("r").ok());
    daemon.RequestStop();  // hard stop — no drain, no SaveAll: a "crash"
    daemon.Stop();
  }

  RegistryOptions registry_options;
  registry_options.spill_dir = dir;
  SessionRegistry registry(registry_options);
  ASSERT_TRUE(registry.Recover().ok());
  ServeDaemon daemon(&registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());
  Result<double> got = client->CountAtLength("r", kHorizon);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want, got.value());
  // Unregister over the wire is durable too.
  ASSERT_TRUE(client->Unregister("r").ok());
  EXPECT_EQ(StatusCode::kNotFound,
            client->CountAtLength("r", kHorizon).status().code());
  EXPECT_FALSE(FileExists(dir + "/r.ckpt"));
  daemon.Stop();
}

}  // namespace
}  // namespace nfacount
