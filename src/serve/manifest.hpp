// The registry manifest — serve mode's durable record of what is registered.
//
// A SessionRegistry with a spill directory journals every Register and
// Unregister to `<spill_dir>/MANIFEST` as append-only, checksummed records
// carrying the full registration tuple (name, automaton text, horizon, seed,
// eps, delta) plus resolved knob flags. Because the engine is deterministic
// by construction (counter-keyed per-(q,ℓ) RNG substreams), that tuple is
// sufficient to rebuild a session bit-identically from nothing — the
// manifest turns a daemon crash from "every session lost" into "every
// session rebuilt, from its checkpoint when the checkpoint is intact and
// from scratch when it is not".
//
// Byte format (docs/FILE_FORMATS.md "Registry manifest"): an 8-byte header
// (magic "NFMF", u32 version 1) followed by entries
//
//   u32  body length L
//   L    body: u8 record type (1=Register, 2=Unregister) + payload
//   u64  FNV-1a 64 over the body bytes
//
// all little-endian, same wire codec and hash as session checkpoints.
// Replay applies records in order, last record per name wins; it stops
// cleanly at the first truncated or checksum-failing entry — exactly what a
// crash mid-append leaves behind — so a torn tail costs at most the record
// being written when the process died (which the crashed Register never
// acknowledged).
//
// Appends are fflush+fsync'd before they are acknowledged. Compaction
// (dropping dead records) rewrites through the same tmp + fsync + atomic
// rename path as checkpoints, so the manifest is old-or-new at every
// instant. The `manifest.append` failpoint (util/failpoint.hpp) injects
// append failures, including crash-like torn writes.

#ifndef NFACOUNT_SERVE_MANIFEST_HPP_
#define NFACOUNT_SERVE_MANIFEST_HPP_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "util/status.hpp"

namespace nfacount {
namespace serve {

/// Current manifest format version (readers reject unknown versions).
inline constexpr uint32_t kManifestVersion = 1;

/// ManifestRecord::flags bit 0, reserved: it once recorded the session's
/// symbol-class switch. Writers set it, so records stay byte-identical to
/// older writers'; readers ignore it.
inline constexpr uint32_t kManifestFlagReserved = 1u << 0;

/// One live registration: everything needed to rebuild the session
/// bit-identically (modulo the draw cursor, which lives in the checkpoint).
struct ManifestRecord {
  std::string name;      ///< session name, [A-Za-z0-9_.-]{1,128}
  std::string nfa_text;  ///< automaton (automata/io.hpp text format)
  int32_t horizon = 0;   ///< session horizon (fixes parameter derivation)
  uint64_t seed = 0;     ///< seed of the randomized run
  double eps = 0.3;      ///< accuracy ε
  double delta = 0.2;    ///< failure probability δ
  uint32_t flags = 0;    ///< reserved flag bits (kManifestFlagReserved)
};

/// The append-only journal over `<dir>/MANIFEST`. Not internally
/// synchronized: the registry serializes all calls behind its registration
/// mutex. Move-only (owns the append handle).
class ManifestJournal {
 public:
  /// Opens (creating if absent) the journal in `dir`, replays it into the
  /// live map, sweeps a stale MANIFEST.tmp from an interrupted compaction,
  /// and compacts when replay found dead records or a torn tail. Errors:
  /// InvalidArgument for a file that is not a manifest (bad magic/version),
  /// Unavailable when the directory is not writable.
  static Result<ManifestJournal> Open(const std::string& dir);

  ManifestJournal(ManifestJournal&& other) noexcept;
  ManifestJournal& operator=(ManifestJournal&& other) noexcept;
  ManifestJournal(const ManifestJournal&) = delete;
  ManifestJournal& operator=(const ManifestJournal&) = delete;
  ~ManifestJournal();

  /// Appends a Register record and syncs it to stable storage. The record
  /// is in `live()` afterwards. On failure the in-memory map is unchanged
  /// and the file is healed (truncated back) before the next append.
  Status AppendRegister(const ManifestRecord& record);

  /// Appends an Unregister record and syncs it; removes `name` from
  /// `live()`. Appending for a name not currently live is allowed (the
  /// record is a harmless tombstone).
  Status AppendUnregister(const std::string& name);

  /// Rewrites the manifest to exactly one Register record per live session
  /// (tmp + fsync + atomic rename; the old manifest survives any failure).
  Status Compact();

  /// The surviving registrations, by name, in replay order semantics
  /// (last record per name won).
  const std::map<std::string, ManifestRecord>& live() const { return live_; }

  /// Records successfully replayed by Open (Registers + Unregisters).
  int64_t replayed_records() const { return replayed_records_; }
  /// Bytes of torn tail Open discarded (0 for a clean manifest).
  int64_t dropped_tail_bytes() const { return dropped_tail_bytes_; }
  /// The journal file path (`<dir>/MANIFEST`).
  const std::string& path() const { return path_; }

 private:
  ManifestJournal() = default;

  /// (Re)opens the append handle positioned at `good_size_`, healing any
  /// torn bytes a failed append left past it.
  Status OpenForAppend();
  /// Appends one encoded entry with fsync; heals the tail first when a
  /// previous append failed partway.
  Status AppendEntry(const std::string& entry);

  std::string dir_;
  std::string path_;
  std::FILE* file_ = nullptr;   ///< append handle (null until first append)
  int64_t good_size_ = 0;       ///< file size through the last valid entry
  bool tail_dirty_ = false;     ///< a failed append may have left torn bytes
  std::map<std::string, ManifestRecord> live_;
  int64_t replayed_records_ = 0;
  int64_t dropped_tail_bytes_ = 0;
};

}  // namespace serve
}  // namespace nfacount

#endif  // NFACOUNT_SERVE_MANIFEST_HPP_
