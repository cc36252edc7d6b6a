#include "fpras/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "automata/io.hpp"
#include "util/failpoint.hpp"
#include "util/wire.hpp"

namespace nfacount {

namespace {

// Preamble layout: 4 magic bytes, u32 version, u32 endianness marker. The
// body is canonical little-endian regardless of host order; the marker exists
// to reject files produced by a hypothetical writer emitting native
// big-endian, with a clear message instead of a checksum mismatch.
constexpr char kMagic[4] = {'N', 'F', 'C', 'K'};
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kPreambleBytes = 12;
constexpr size_t kChecksumBytes = 8;

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The envelope both readers check before trusting a byte of the body:
/// size, magic, supported version, canonical byte order, then the FNV-1a
/// trailer. `where` ends every message (": <path>" for the file probe).
/// On success *version holds the format version.
Status CheckEnvelope(const std::string& bytes, const std::string& where,
                     uint32_t* version) {
  if (bytes.size() < kPreambleBytes + kChecksumBytes) {
    return Status::DataLoss("checkpoint truncated: shorter than preamble" +
                            where);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a session checkpoint (bad magic)" + where);
  }
  ByteReader preamble(bytes.data() + sizeof(kMagic), 8);
  uint32_t endian = 0;
  NFA_RETURN_NOT_OK(preamble.U32(version));
  NFA_RETURN_NOT_OK(preamble.U32(&endian));
  if (*version < 1 || *version > kCheckpointVersion) {
    return Status::Invalid("unsupported checkpoint version " +
                           std::to_string(*version) + " (expected <= " +
                           std::to_string(kCheckpointVersion) + ")" + where);
  }
  if (endian != kEndianMarker) {
    return Status::Invalid(
        "checkpoint byte order is not canonical little-endian" + where);
  }
  const size_t body_size = bytes.size() - kChecksumBytes;
  ByteReader tail(bytes.data() + body_size, kChecksumBytes);
  uint64_t stored_sum = 0;
  NFA_RETURN_NOT_OK(tail.U64(&stored_sum));
  if (Fnv1a64(bytes.data(), body_size) != stored_sum) {
    return Status::DataLoss("checkpoint integrity checksum mismatch" + where);
  }
  return Status::Ok();
}

// The byte codec lives in util/wire.hpp (ByteWriter/ByteReader), shared with
// the serve-mode wire protocol — identical byte semantics to the original
// in-file classes, so existing checkpoints load unchanged.

// Reserved parameter-block fields: five flag bytes, one I32 (the lockstep
// batch width) and one I64 that once held engine knobs. Writers emit the
// values those knobs defaulted to, so files stay byte-identical to earlier
// writers' at default knobs; readers skip them, whatever an older file
// stored there.
constexpr uint8_t kReservedFlag = 1;
constexpr int32_t kReservedWidth = 0;
constexpr int64_t kReservedCapacity = int64_t{1} << 20;

void WriteParams(const FprasParams& p, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(p.schedule));
  w->I32(p.m);
  w->I32(p.n);
  w->F64(p.eps);
  w->F64(p.delta);
  // Derived values are stored verbatim rather than re-derived on load:
  // libm differences across platforms must not perturb a restored run.
  w->F64(p.beta);
  w->F64(p.eta);
  w->I64(p.ns);
  w->I64(p.xns);
  w->F64(p.calibration.ns_scale);
  w->F64(p.calibration.xns_log_scale);
  w->F64(p.calibration.trial_scale);
  w->I64(p.calibration.ns_floor);
  w->I64(p.calibration.trial_floor);
  w->F64(p.calibration.xns_multiplier_floor);
  w->U8(p.perturb_support ? 1 : 0);
  w->U8(kReservedFlag);
  w->U8(kReservedFlag);
  w->U8(p.recycle_samples ? 1 : 0);
  w->U8(kReservedFlag);
  w->U8(kReservedFlag);
  w->I32(p.num_threads);
  w->I32(kReservedWidth);
  w->I64(kReservedCapacity);
  w->U8(kReservedFlag);  // v2: reserved (was the symbol-class switch)
}

Status ReadParams(ByteReader* r, uint32_t version, FprasParams* p) {
  uint32_t schedule = 0;
  NFA_RETURN_NOT_OK(r->U32(&schedule));
  if (schedule > static_cast<uint32_t>(Schedule::kAcjr)) {
    return Status::Invalid("checkpoint: unknown schedule id");
  }
  p->schedule = static_cast<Schedule>(schedule);
  NFA_RETURN_NOT_OK(r->I32(&p->m));
  NFA_RETURN_NOT_OK(r->I32(&p->n));
  NFA_RETURN_NOT_OK(r->F64(&p->eps));
  NFA_RETURN_NOT_OK(r->F64(&p->delta));
  NFA_RETURN_NOT_OK(r->F64(&p->beta));
  NFA_RETURN_NOT_OK(r->F64(&p->eta));
  NFA_RETURN_NOT_OK(r->I64(&p->ns));
  NFA_RETURN_NOT_OK(r->I64(&p->xns));
  NFA_RETURN_NOT_OK(r->F64(&p->calibration.ns_scale));
  NFA_RETURN_NOT_OK(r->F64(&p->calibration.xns_log_scale));
  NFA_RETURN_NOT_OK(r->F64(&p->calibration.trial_scale));
  NFA_RETURN_NOT_OK(r->I64(&p->calibration.ns_floor));
  NFA_RETURN_NOT_OK(r->I64(&p->calibration.trial_floor));
  NFA_RETURN_NOT_OK(r->F64(&p->calibration.xns_multiplier_floor));
  uint8_t flag = 0;
  int32_t reserved_width = 0;
  int64_t reserved = 0;
  NFA_RETURN_NOT_OK(r->U8(&flag));
  p->perturb_support = flag != 0;
  NFA_RETURN_NOT_OK(r->U8(&flag));  // reserved
  NFA_RETURN_NOT_OK(r->U8(&flag));  // reserved
  NFA_RETURN_NOT_OK(r->U8(&flag));
  p->recycle_samples = flag != 0;
  NFA_RETURN_NOT_OK(r->U8(&flag));  // reserved
  NFA_RETURN_NOT_OK(r->U8(&flag));  // reserved
  NFA_RETURN_NOT_OK(r->I32(&p->num_threads));
  NFA_RETURN_NOT_OK(r->I32(&reserved_width));
  NFA_RETURN_NOT_OK(r->I64(&reserved));
  if (version >= 2) NFA_RETURN_NOT_OK(r->U8(&flag));  // reserved
  if (p->m < 1 || p->n < 0 || !(p->eps > 0.0) ||
      !(p->delta > 0.0 && p->delta < 1.0) || p->ns < 1 || p->xns < p->ns) {
    return Status::Invalid("checkpoint: parameter block fails validation");
  }
  // Allocation guards: engine construction sizes tables by these fields
  // before any level data is read, so a crafted file must not be able to
  // demand absurd allocations (the failure model is Status, not bad_alloc).
  // 2^24 (q, ℓ) cells / 2^30 samples per cell are far beyond any session
  // this loader's machine could have produced.
  if (p->n > (1 << 24) ||
      static_cast<int64_t>(p->m) * (static_cast<int64_t>(p->n) + 1) >
          (int64_t{1} << 24) ||
      p->ns > (int64_t{1} << 30)) {
    return Status::Invalid("checkpoint: dimensions exceed loader limits");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeSessionCheckpoint(const EngineSession& session) {
  const FprasEngine& engine = session.engine();
  const int m = session.nfa().num_states();
  const int computed = session.computed_level();

  ByteWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kCheckpointVersion);
  w.U32(kEndianMarker);

  w.U64(session.seed());
  WriteParams(session.params(), &w);
  w.I32(computed);
  w.I64(engine.draw_cursor());
  w.String(NfaToText(session.nfa()));

  for (int level = 0; level <= computed; ++level) {
    const LevelState& state = engine.LevelStateAt(level);
    for (int q = 0; q < m; ++q) {
      const StateLevelData& cell = state.cells[static_cast<size_t>(q)];
      w.F64(cell.count_estimate);
      w.I64(cell.samples.count());
      // One u16 LE per symbol (canonical byte order on any host; v1 files
      // stored one byte per symbol).
      for (Symbol s : cell.samples.symbols_slab()) w.U16(s);
      const std::vector<uint64_t>& profiles = cell.samples.profiles_slab();
      for (uint64_t word : profiles) w.U64(word);
    }
  }

  w.U64(Fnv1a64(w.buffer().data(), w.buffer().size()));
  return std::move(w.buffer());
}

Result<EngineSession> DeserializeSessionCheckpoint(const std::string& bytes,
                                                   const SessionKnobs* knobs) {
  uint32_t version = 0;
  NFA_RETURN_NOT_OK(CheckEnvelope(bytes, "", &version));
  const size_t body_size = bytes.size() - kChecksumBytes;
  ByteReader r(bytes.data() + kPreambleBytes,
               body_size - kPreambleBytes);
  uint64_t seed = 0;
  NFA_RETURN_NOT_OK(r.U64(&seed));
  FprasParams params;
  NFA_RETURN_NOT_OK(ReadParams(&r, version, &params));
  int32_t computed = 0;
  NFA_RETURN_NOT_OK(r.I32(&computed));
  int64_t draw_cursor = 0;
  NFA_RETURN_NOT_OK(r.I64(&draw_cursor));
  if (computed < 0 || computed > params.n) {
    return Status::Invalid("checkpoint: computed level outside [0, horizon]");
  }

  std::string nfa_text;
  NFA_RETURN_NOT_OK(r.String(&nfa_text, bytes.size()));
  Result<Nfa> parsed = ParseNfaText(nfa_text);
  if (!parsed.ok()) {
    return Status::Invalid("checkpoint: embedded automaton unreadable: " +
                           parsed.status().message());
  }
  auto nfa = std::make_unique<Nfa>(std::move(parsed).value());
  if (nfa->num_states() != params.m) {
    return Status::Invalid(
        "checkpoint: automaton size disagrees with parameter block");
  }

  const int m = params.m;
  const size_t profile_words = (static_cast<size_t>(m) + 63) / 64;
  // Every serialized cell occupies at least 16 bytes (count estimate +
  // sample count), so the claimed level range must fit the bytes actually
  // present before anything is allocated for it.
  if ((static_cast<uint64_t>(computed) + 1) * static_cast<uint64_t>(m) * 16 >
      r.remaining()) {
    return Status::DataLoss("checkpoint truncated: level data missing");
  }
  std::vector<LevelState> levels(static_cast<size_t>(computed) + 1);
  for (int level = 0; level <= computed; ++level) {
    LevelState& state = levels[static_cast<size_t>(level)];
    state.level = level;
    state.cells.resize(static_cast<size_t>(m));
    for (int q = 0; q < m; ++q) {
      StateLevelData& cell = state.cells[static_cast<size_t>(q)];
      NFA_RETURN_NOT_OK(r.F64(&cell.count_estimate));
      int64_t count = 0;
      NFA_RETURN_NOT_OK(r.I64(&count));
      // Bound the claimed sample count by the bytes remaining for this
      // cell's slabs (level symbols + profile words per sample) before
      // sizing any vector by it. v1 files store one byte per symbol, v2
      // files two (u16 LE).
      const uint64_t symbol_bytes = version >= 2 ? 2 : 1;
      const uint64_t per_sample =
          static_cast<uint64_t>(level) * symbol_bytes +
          profile_words * sizeof(uint64_t);
      if (count < 0 ||
          static_cast<uint64_t>(count) > r.remaining() / per_sample) {
        return Status::DataLoss("checkpoint: sample count corrupt");
      }
      std::vector<Symbol> symbols(static_cast<size_t>(count) *
                                  static_cast<size_t>(level));
      if (version >= 2) {
        for (Symbol& s : symbols) NFA_RETURN_NOT_OK(r.U16(&s));
      } else {
        for (Symbol& s : symbols) {
          uint8_t narrow = 0;
          NFA_RETURN_NOT_OK(r.U8(&narrow));
          s = narrow;
        }
      }
      std::vector<uint64_t> profiles(static_cast<size_t>(count) *
                                     profile_words);
      for (uint64_t& word : profiles) {
        NFA_RETURN_NOT_OK(r.U64(&word));
      }
      NFA_RETURN_NOT_OK(cell.samples.Restore(level, static_cast<size_t>(m),
                                             count, std::move(symbols),
                                             std::move(profiles)));
    }
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("checkpoint: trailing bytes after level data");
  }

  if (knobs != nullptr) {
    params.num_threads = knobs->num_threads;
    if (knobs->descent_cache_capacity >= 0) {
      params.descent_cache_capacity = knobs->descent_cache_capacity;
    }
  }
  return EngineSession::Restore(std::move(nfa), params, seed, computed,
                                std::move(levels), draw_cursor);
}

Status SaveSessionCheckpoint(const EngineSession& session,
                             const std::string& path) {
  const std::string bytes = SerializeSessionCheckpoint(session);
  // Crash-safe save: write the complete checkpoint to <path>.tmp, flush it
  // to stable storage, then atomically rename over the destination. A crash,
  // kill, or I/O failure at any point leaves `path` holding either the old
  // checkpoint or the new one in full — never a truncated file — and a
  // failed save never removes a pre-existing checkpoint (the old in-place
  // writer clobbered it mid-fwrite and std::remove'd it on short writes).
  const std::string tmp_path = path + ".tmp";
  const failpoint::Eval fault = failpoint::Check("checkpoint.write");
  if (fault.action == failpoint::Action::kError) {
    return Status::DataLoss("failpoint checkpoint.write: injected failure: " +
                            tmp_path);
  }
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Invalid("cannot open checkpoint temp file for writing: " +
                           tmp_path);
  }
  size_t to_write = bytes.size();
  if (fault.action == failpoint::Action::kShortWrite &&
      static_cast<size_t>(fault.arg) < to_write) {
    to_write = static_cast<size_t>(fault.arg);
  }
  bool ok = std::fwrite(bytes.data(), 1, to_write, f) == bytes.size();
  if (ok && std::fflush(f) != 0) ok = false;
#ifndef _WIN32
  // fflush only moves bytes into the kernel; fsync makes the rename below a
  // durable old-or-new choice even across power loss.
  if (ok && fsync(fileno(f)) != 0) ok = false;
#endif
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());  // the checkpoint at `path` is untouched
    return Status::DataLoss("short write while saving checkpoint: " +
                            tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::DataLoss("cannot move checkpoint into place: " + path);
  }
  return Status::Ok();
}

namespace {

Status ReadCheckpointBytes(const std::string& path, std::string* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open checkpoint file: " + path);
  }
  bytes->clear();
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes->append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::DataLoss("read error while loading checkpoint: " + path);
  }
  return Status::Ok();
}

}  // namespace

Result<EngineSession> LoadSessionCheckpoint(const std::string& path,
                                            const SessionKnobs* knobs) {
  std::string bytes;
  NFA_RETURN_NOT_OK(ReadCheckpointBytes(path, &bytes));
  return DeserializeSessionCheckpoint(bytes, knobs);
}

Status ValidateSessionCheckpoint(const std::string& path) {
  std::string bytes;
  NFA_RETURN_NOT_OK(ReadCheckpointBytes(path, &bytes));
  uint32_t version = 0;
  return CheckEnvelope(bytes, ": " + path, &version);
}

}  // namespace nfacount
