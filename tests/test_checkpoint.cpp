// Binary session checkpoints: save→load→extend must be bit-identical to an
// uninterrupted run at the same (seed, knob) point — at every num_threads —
// and every defective file
// (truncated, corrupted, wrong magic/version/endianness) must be rejected
// with a precise Status, never loaded partially. Committed golden files pin
// the on-disk format against accidental layout changes: a v1 file must
// load, and today's writer must reproduce a v2 file byte for byte.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

#ifndef NFACOUNT_TEST_DATA_DIR
#define NFACOUNT_TEST_DATA_DIR "tests/data"
#endif

namespace nfacount {
namespace {

using testing_support::ExpectTablesIdentical;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

/// ValidateSessionCheckpoint over in-memory bytes: the file probe of the
/// registry's recovery triage, run on the same defective inputs as the
/// loader.
Status ValidateBytes(const std::string& bytes) {
  const std::string path = TempPath("validate_probe.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return Status::Internal("cannot write " + path);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  const Status probed = ValidateSessionCheckpoint(path);
  std::remove(path.c_str());
  return probed;
}

/// Re-seals patched checkpoint bytes: FNV-1a-64 over everything before the
/// 8-byte trailer, stored little-endian.
void Reseal(std::string* bytes) {
  const size_t body = bytes->size() - 8;
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < body; ++i) {
    h ^= static_cast<unsigned char>((*bytes)[i]);
    h *= 1099511628211ULL;
  }
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[body + i] = static_cast<char>((h >> (8 * i)) & 0xff);
  }
}

TEST(Checkpoint, RoundTripRestoresFullState) {
  // Property: save → load reproduces every structural field, every table
  // cell, and the draw-cursor position (so draw streams continue in step).
  Rng rng(TestSeed(901));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int horizon = 7;
    const int computed = 4;
    Result<EngineSession> original =
        EngineSession::Create(nfa, horizon, SessionTestOptions(TestSeed(902) + trial));
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(original->ExtendTo(computed).ok());
    // Advance the draw cursor before saving: resume must continue it.
    Result<std::vector<Word>> pre = original->SampleWords(computed, 3);
    ASSERT_TRUE(pre.ok());

    const std::string path = TempPath("roundtrip.ckpt");
    ASSERT_TRUE(original->Save(path).ok());
    Result<EngineSession> loaded = EngineSession::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ(loaded->horizon(), horizon);
    EXPECT_EQ(loaded->computed_level(), computed);
    EXPECT_EQ(loaded->seed(), original->seed());
    EXPECT_EQ(loaded->params().ns, original->params().ns);
    EXPECT_EQ(loaded->params().xns, original->params().xns);
    EXPECT_EQ(loaded->params().beta, original->params().beta);
    EXPECT_EQ(loaded->params().eta, original->params().eta);
    EXPECT_EQ(loaded->nfa().num_states(), nfa.num_states());
    ExpectTablesIdentical(original->engine(), loaded->engine(), nfa,
                          computed);

    // Draw-stream continuity: the next draws agree between the session that
    // never stopped and the one that went through disk.
    Result<std::vector<Word>> a = original->SampleWords(computed, 4);
    Result<std::vector<Word>> b = loaded->SampleWords(computed, 4);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "trial=" << trial;
  }
}

TEST(Checkpoint, SaveLoadExtendBitIdenticalToFreshAcrossKnobGrid) {
  // The acceptance matrix: a session saved at n/2 and resumed at every
  // thread count, then extended to n, must equal a fresh uninterrupted run —
  // estimates, tables, and draws.
  Rng rng(TestSeed(911));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 8;
  const int half = 4;
  CountOptions opts = SessionTestOptions(TestSeed(912));

  Result<EngineSession> fresh = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->ExtendTo(n).ok());
  Result<std::vector<Word>> fresh_words = fresh->SampleWords(n, 6);
  Result<std::vector<Word>> fresh_words2 = fresh->SampleWords(n, 4);
  ASSERT_TRUE(fresh_words.ok() && fresh_words2.ok());

  Result<EngineSession> half_way = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(half_way.ok());
  ASSERT_TRUE(half_way->ExtendTo(half).ok());
  const std::string path = TempPath("grid.ckpt");
  ASSERT_TRUE(half_way->Save(path).ok());

  const int threads_grid[] = {1, 4};
  for (int threads : threads_grid) {
    SessionKnobs knobs;
    knobs.num_threads = threads;
    Result<EngineSession> resumed = EngineSession::Load(path, &knobs);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(resumed->ExtendTo(n).ok());
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    for (int level = 0; level <= n; ++level) {
      Result<double> a = fresh->CountAtLength(level);
      Result<double> b = resumed->CountAtLength(level);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "level=" << level;
    }
    ExpectTablesIdentical(fresh->engine(), resumed->engine(), nfa, n);
    // The draw stream must track the fresh session's across repeated
    // calls — the cursor advances exactly, never batch-rounded.
    Result<std::vector<Word>> words = resumed->SampleWords(n, 6);
    Result<std::vector<Word>> words2 = resumed->SampleWords(n, 4);
    ASSERT_TRUE(words.ok() && words2.ok());
    EXPECT_EQ(*fresh_words, *words);
    EXPECT_EQ(*fresh_words2, *words2);
  }
}

TEST(Checkpoint, InMemorySerializationMatchesFile) {
  Rng rng(TestSeed(921));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(922)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());

  const std::string bytes = SerializeSessionCheckpoint(*session);
  const std::string path = TempPath("inmem.ckpt");
  ASSERT_TRUE(session->Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_bytes(bytes.size() + 64, '\0');
  const size_t got = std::fread(&file_bytes[0], 1, file_bytes.size(), f);
  std::fclose(f);
  file_bytes.resize(got);
  EXPECT_EQ(bytes, file_bytes);

  Result<EngineSession> loaded = DeserializeSessionCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->computed_level(), 3);
}

TEST(Checkpoint, TruncationIsDataLoss) {
  Rng rng(TestSeed(931));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(932)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  // Every proper prefix must be rejected as data loss (a handful of cut
  // points covers the preamble, the header, the tables, and the checksum),
  // by the loader and by the file probe alike.
  EXPECT_TRUE(ValidateBytes(bytes).ok());
  for (size_t cut : {size_t{0}, size_t{5}, size_t{11}, size_t{40},
                     bytes.size() / 2, bytes.size() - 1}) {
    Result<EngineSession> r =
        DeserializeSessionCheckpoint(bytes.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
    EXPECT_EQ(ValidateBytes(bytes.substr(0, cut)).code(),
              StatusCode::kDataLoss)
        << "cut=" << cut;
  }
}

TEST(Checkpoint, BitCorruptionIsDetected) {
  Rng rng(TestSeed(941));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(942)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  // Flip one bit at a spread of positions past the preamble: the checksum
  // must catch every one (the preamble fields have their own diagnostics,
  // tested below).
  Rng flip_rng(TestSeed(943));
  for (int i = 0; i < 24; ++i) {
    const size_t pos =
        12 + static_cast<size_t>(
                 flip_rng.UniformU64(static_cast<uint64_t>(bytes.size() - 12)));
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (i % 8)));
    Result<EngineSession> r = DeserializeSessionCheckpoint(corrupt);
    ASSERT_FALSE(r.ok()) << "pos=" << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "pos=" << pos;
    EXPECT_EQ(ValidateBytes(corrupt).code(), StatusCode::kDataLoss)
        << "pos=" << pos;
  }
}

TEST(Checkpoint, PreambleDefectsGetPreciseDiagnostics) {
  Rng rng(TestSeed(951));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(952)));
  ASSERT_TRUE(session.ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  Result<EngineSession> r1 = DeserializeSessionCheckpoint(bad_magic);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("magic"), std::string::npos);
  const Status v1 = ValidateBytes(bad_magic);
  EXPECT_EQ(v1.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v1.message().find("magic"), std::string::npos);

  std::string bad_version = bytes;
  bad_version[4] = 99;  // version precedes the checksum check by design
  Result<EngineSession> r2 = DeserializeSessionCheckpoint(bad_version);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("version"), std::string::npos);
  const Status v2 = ValidateBytes(bad_version);
  EXPECT_EQ(v2.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v2.message().find("version"), std::string::npos);

  // The canonical marker 0x01020304 serializes little-endian as the byte
  // run 04 03 02 01; a writer emitting native big-endian order would
  // produce the reverse, which the loader must name precisely.
  std::string bad_endian = bytes;
  bad_endian[8] = 0x01;
  bad_endian[9] = 0x02;
  bad_endian[10] = 0x03;
  bad_endian[11] = 0x04;
  Result<EngineSession> r3 = DeserializeSessionCheckpoint(bad_endian);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r3.status().message().find("endian"), std::string::npos);
  const Status v3 = ValidateBytes(bad_endian);
  EXPECT_EQ(v3.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v3.message().find("endian"), std::string::npos);
  // The probe names the file it rejected.
  EXPECT_NE(v3.message().find("validate_probe.ckpt"), std::string::npos);
}

TEST(Checkpoint, RetiredFlagBytesAreIgnored) {
  // The parameter block keeps five reserved flag bytes, one reserved I32
  // and one reserved I64 where engine knobs used to live. Writers emit 1, 1,
  // 1, 1, 0, 2^20 and (v2) 1 there; older files may hold anything (e.g. the
  // knobs switched off, or a lockstep batch width in the I32). Zero the
  // flags and the I64, set the I32 to 64, re-seal the FNV-1a trailer, and
  // the resumed run must be bit-identical to the unpatched one and to an
  // uninterrupted run. The last byte once held the symbol-class switch; the
  // automaton has a compressed alphabet (3 distinct rows over 64 symbols),
  // so a resume that honored a zero there would move bits.
  const Nfa nfa = CorpusTokenNfa(3, 64, 3);
  const int n = 7;
  const CountOptions opts = SessionTestOptions(TestSeed(962));
  Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(4).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  // Byte offsets (docs/FILE_FORMATS.md): 12-byte preamble, u64 seed, then
  // the parameter block — 108 bytes of schedule/dimensions/derived values/
  // calibration before the six flag bytes, then the num_threads I32, the
  // reserved I32, the reserved I64 and the v2 flag byte.
  constexpr size_t kFlags = 12 + 8 + 108;
  constexpr size_t kReservedI32 = kFlags + 6 + 4;
  constexpr size_t kReservedI64 = kReservedI32 + 4;
  constexpr size_t kReservedFlags[] = {kFlags + 1, kFlags + 2, kFlags + 4,
                                       kFlags + 5, kReservedI64 + 8};
  ASSERT_GT(bytes.size(), kReservedI64 + 8 + 1 + 8);
  std::string patched = bytes;
  for (size_t at : kReservedFlags) {
    ASSERT_EQ(patched[at], 1) << "offset " << at;
    patched[at] = 0;
  }
  const std::string default_capacity("\x00\x00\x10\x00\x00\x00\x00\x00", 8);
  ASSERT_EQ(patched.substr(kReservedI64, 8), default_capacity);
  patched.replace(kReservedI64, 8, std::string(8, '\0'));
  ASSERT_EQ(patched.substr(kReservedI32, 4), std::string(4, '\0'));
  patched.replace(kReservedI32, 4, std::string("\x40\x00\x00\x00", 4));
  Reseal(&patched);
  ASSERT_NE(patched, bytes);

  Result<EngineSession> plain = DeserializeSessionCheckpoint(bytes);
  Result<EngineSession> retired = DeserializeSessionCheckpoint(patched);
  Result<EngineSession> straight = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(retired.ok()) << retired.status().ToString();
  ASSERT_TRUE(straight.ok());
  EXPECT_EQ(retired->params().batch_width, 0);  // resumes at the default
  ASSERT_TRUE(plain->ExtendTo(n).ok());
  ASSERT_TRUE(retired->ExtendTo(n).ok());
  ASSERT_TRUE(straight->ExtendTo(n).ok());
  for (int level = 0; level <= n; ++level) {
    Result<double> a = plain->CountAtLength(level);
    Result<double> b = retired->CountAtLength(level);
    Result<double> c = straight->CountAtLength(level);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b) << "level=" << level;
    EXPECT_EQ(*a, *c) << "level=" << level;
  }
  ExpectTablesIdentical(plain->engine(), retired->engine(), nfa, n);
  ExpectTablesIdentical(plain->engine(), straight->engine(), nfa, n);
  Result<std::vector<Word>> words_a = plain->SampleWords(n, 8);
  Result<std::vector<Word>> words_b = retired->SampleWords(n, 8);
  ASSERT_TRUE(words_a.ok() && words_b.ok());
  EXPECT_EQ(*words_a, *words_b);
  // Re-saving writes the reserved defaults again, whatever was read.
  EXPECT_EQ(SerializeSessionCheckpoint(*retired),
            SerializeSessionCheckpoint(*plain));
}

TEST(Checkpoint, NegativeOrNaNCountIsRejected) {
  // N(q^ℓ) weights AppUnion's input draw. Patch one live accepting cell's
  // count at the horizon and re-seal the trailer: a negative or NaN value
  // must be rejected as Invalid before any |L(A_ℓ)| is computed from it
  // (otherwise -5 trips the draw table's weight check and NaN answers 0),
  // while +inf — what PerturbedCount yields once |Σ|^ℓ overflows — loads.
  Rng rng(TestSeed(971));
  Nfa nfa = RandomNfa(12, 0.3, 0.3, rng);
  const int n = 4;
  Result<EngineSession> session =
      EngineSession::Create(nfa, n, SessionTestOptions(TestSeed(972)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(n).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);
  const FprasEngine& engine = session->engine();
  Bitset live_accepting = nfa.accepting();
  live_accepting &= engine.unrolled().ReachableAt(n);
  ASSERT_TRUE(live_accepting.Any());
  const StateId target = static_cast<StateId>(live_accepting.FirstSet());

  // Level n is the last block before the 8-byte trailer; each cell is its
  // F64 count, I64 sample count, u16 symbols and u64 profile words.
  size_t offset = bytes.size() - 8;
  for (StateId q = nfa.num_states() - 1; q >= target; --q) {
    const SampleBlock& block = engine.SampleBlockFor(q, n);
    offset -= 16 + block.symbols_slab().size() * 2 +
              block.profiles_slab().size() * 8;
  }
  auto patch = [&](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    std::string patched = bytes;
    for (size_t i = 0; i < 8; ++i) {
      patched[offset + i] = static_cast<char>((bits >> (8 * i)) & 0xff);
    }
    Reseal(&patched);
    return patched;
  };
  // The offset lands on the target cell: re-sealing its own value is a
  // no-op.
  ASSERT_EQ(patch(engine.CountEstimateFor(target, n)), bytes);

  for (double bad : {-5.0, std::nan("")}) {
    Result<EngineSession> r = DeserializeSessionCheckpoint(patch(bad));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("count estimate"), std::string::npos)
        << r.status().ToString();
  }
  Result<EngineSession> inf = DeserializeSessionCheckpoint(
      patch(std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(inf.ok()) << inf.status().ToString();
  EXPECT_EQ(inf->engine().CountEstimateFor(target, n),
            std::numeric_limits<double>::infinity());
}

TEST(Checkpoint, MissingFileIsNotFound) {
  Result<EngineSession> r =
      EngineSession::Load(TempPath("no_such_file.ckpt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return std::string();
  std::string bytes;
  char buf[1 << 14];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

TEST(Checkpoint, GoldenFileReadsBackAndExtends) {
  // The committed fixture pins format version 1: header geometry, parameter
  // block layout, level-table packing. Regenerate it with
  //   example_nfa_cli count tests/data/golden.nfa 4 0.3 0.2 12345
  //       --horizon 6 --save-state tests/data/golden_session.ckpt
  // (one line) and update the constants below ONLY on a deliberate format
  // bump.
  const std::string path =
      std::string(NFACOUNT_TEST_DATA_DIR) + "/golden_session.ckpt";
  Result<EngineSession> golden = EngineSession::Load(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(golden->nfa().num_states(), 4);
  EXPECT_EQ(golden->horizon(), 6);
  EXPECT_EQ(golden->computed_level(), 4);
  EXPECT_EQ(golden->seed(), 12345u);
  EXPECT_EQ(golden->params().eps, 0.3);
  EXPECT_EQ(golden->params().delta, 0.2);

  // The stored tables must answer exactly what the writer recorded (the
  // value is data read back, not recomputed, so the comparison is exact).
  Result<double> at4 = golden->CountAtLength(4);
  ASSERT_TRUE(at4.ok());
  // golden.nfa guesses a '1' three positions before the end: |L_4| = 2³ = 8.
  EXPECT_NEAR(*at4 / 8.0, 1.0, 0.35);

  // And the session must remain a live, extensible run.
  ASSERT_TRUE(golden->ExtendTo(6).ok());
  Result<double> at6 = golden->CountAtLength(6);
  ASSERT_TRUE(at6.ok());
  EXPECT_GT(*at6, 0.0);
  Result<std::vector<Word>> words = golden->SampleWords(6, 3);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(words->size(), 3u);
}

TEST(Checkpoint, WriterReproducesGoldenV2Bytes) {
  // The committed v2 fixture pins today's writer byte for byte. It was
  // written by
  //   example_nfa_cli count tests/data/golden.nfa 4 0.3 0.2 12345
  //       --horizon 6 --threads 1 --save-state tests/data/golden_session_v2.ckpt
  // (one line). The file stores num_threads, so it is a one-thread save.
  // Regenerate it ONLY on a deliberate format or stream change.
  const std::string dir = NFACOUNT_TEST_DATA_DIR;
  Result<Nfa> nfa = LoadNfaFile(dir + "/golden.nfa");
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  Result<EngineSession> session =
      EngineSession::Create(*nfa, 6, SessionTestOptions(12345));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(4).ok());
  const std::string want = ReadFileBytes(dir + "/golden_session_v2.ckpt");
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(SerializeSessionCheckpoint(*session) == want)
      << "the writer no longer reproduces golden_session_v2.ckpt";
}

// ---------------------------------------------------------------------------
// Crash safety (ISSUE 6 satellite): a failed or interrupted save must never
// corrupt or remove a pre-existing checkpoint.
// ---------------------------------------------------------------------------

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// RAII arming of the checkpoint.write failpoint's short-write action.
struct WriteLimitGuard {
  explicit WriteLimitGuard(int64_t limit) {
    EXPECT_TRUE(failpoint::Set("checkpoint.write",
                               "short-write(" + std::to_string(limit) + ")")
                    .ok());
  }
  ~WriteLimitGuard() { failpoint::Clear("checkpoint.write"); }
};

TEST(CheckpointCrashSafety, FailedSaveLeavesExistingCheckpointIntact) {
  // A good checkpoint exists; a later save dies mid-write (simulated as a
  // short write via the injection hook — what a crash, kill, or full disk
  // looks like to the writer). The original file must survive byte-for-byte
  // and still load; the temp file must be cleaned up.
  Rng rng(TestSeed(951));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 7, SessionTestOptions(TestSeed(952)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());

  const std::string path = TempPath("crash_safe.ckpt");
  std::remove(path.c_str());
  ASSERT_TRUE(session->Save(path).ok());
  const std::string good_bytes = ReadFileBytes(path);
  ASSERT_FALSE(good_bytes.empty());

  // Advance the session so the failed save would have written new content.
  ASSERT_TRUE(session->ExtendTo(6).ok());
  {
    WriteLimitGuard limit(16);  // die 16 bytes into the temp file
    Status failed = session->Save(path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kDataLoss)
        << failed.ToString();
  }

  EXPECT_EQ(ReadFileBytes(path), good_bytes);  // old checkpoint untouched
  EXPECT_FALSE(FileExists(path + ".tmp"));     // partial temp cleaned up
  Result<EngineSession> reloaded = EngineSession::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->computed_level(), 3);

  // After the failure the same session saves fine, atomically replacing the
  // old file, and the reloaded state reflects the new computed level.
  ASSERT_TRUE(session->Save(path).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  Result<EngineSession> extended = EngineSession::Load(path);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->computed_level(), 6);
  std::remove(path.c_str());
}

TEST(CheckpointCrashSafety, UnwritableTempPathFailsWithoutTouchingCheckpoint) {
  // Block the <path>.tmp slot with a directory so the temp file cannot even
  // be opened: the save must fail cleanly and the existing checkpoint must
  // not be modified or removed (the CI session-identity job runs the same
  // scenario through the CLI).
  Rng rng(TestSeed(961));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(962)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(2).ok());

  const std::string path = TempPath("blocked_tmp.ckpt");
  std::remove(path.c_str());
  ASSERT_TRUE(session->Save(path).ok());
  const std::string good_bytes = ReadFileBytes(path);

#ifndef _WIN32
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  Status failed = session->Save(path);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << failed.ToString();
  EXPECT_EQ(ReadFileBytes(path), good_bytes);
  Result<EngineSession> reloaded = EngineSession::Load(path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
#endif
  std::remove(path.c_str());
}

TEST(CheckpointCrashSafety, StaleTempFromKilledWriterIsReplacedBySave) {
  // A writer killed between fwrite and rename leaves <path>.tmp behind. A
  // later save must simply overwrite it and complete; the stale partial
  // bytes must never end up at the destination.
  Rng rng(TestSeed(971));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(972)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(4).ok());

  const std::string path = TempPath("stale_tmp.ckpt");
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NFCK garbage from a killed writer", f);
    std::fclose(f);
  }
  ASSERT_TRUE(session->Save(path).ok());
  EXPECT_FALSE(FileExists(tmp));
  Result<EngineSession> loaded = EngineSession::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->computed_level(), 4);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfacount
