// Binary session checkpoints: persist an EngineSession's full computed state
// (automaton, derived parameters, every computed LevelState, and the post-run
// draw cursor) and restore it in another process, on another machine, or
// under different runtime knobs — with bit-identical results.
//
// Format (docs/FILE_FORMATS.md "Session checkpoints (.ckpt)"): a fixed
// preamble — magic "NFCK", format version, endianness marker — followed by a
// canonical little-endian body and a trailing FNV-1a 64 integrity checksum.
// The file is self-contained: the automaton rides along as its text
// serialization (automata/io.hpp), so a checkpoint needs no side files.
//
// Failure model: every defect is a Status, never UB or a partial session —
//   InvalidArgument  not a checkpoint (bad magic) / unsupported version /
//                    non-canonical byte order / inconsistent dimensions
//   DataLoss         truncated file or checksum mismatch (bit corruption)
//
// Deliberately NOT serialized: the descent cache (a pure cache whose
// entries are content-keyed — recomputation reproduces them exactly, so a
// resumed session is merely cache-cold, never different; the descent-cache
// capacity is a runtime knob carried by SessionKnobs, not by the format) and
// the diagnostics counters (a resumed session restarts them at zero).

#ifndef NFACOUNT_FPRAS_CHECKPOINT_HPP_
#define NFACOUNT_FPRAS_CHECKPOINT_HPP_

#include <string>

#include "fpras/session.hpp"

namespace nfacount {

/// Current checkpoint format version (bumped on any layout change; readers
/// reject unknown versions rather than guessing). v2 widened stored-word
/// symbols from one byte to u16 LE and appended one flag byte to the
/// parameter block; v1 files still load (1-byte symbols, no flag byte). The
/// byte once held the symbol-class switch and is now reserved: written as 1,
/// ignored on read, so an older class-off file resumes with classes on.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Serializes `session` to `path` crash-safely: the checkpoint is written to
/// `<path>.tmp`, flushed and fsynced, then atomically renamed over `path`.
/// On any failure (and across crashes or kills mid-save) a pre-existing
/// checkpoint at `path` survives untouched, and the temp file is removed on
/// every failure this process observes. The session's computed prefix, not
/// the horizon, bounds the file size.
Status SaveSessionCheckpoint(const EngineSession& session,
                             const std::string& path);

/// Integrity probe without the cost (or side effects) of a full restore:
/// reads `path`, verifies the preamble (magic, supported version, canonical
/// byte order) and the trailing FNV-1a checksum over the body. Ok means the
/// bytes are exactly what a writer produced; registry recovery uses this to
/// decide revive-vs-quarantine before any session state is built. Errors
/// match LoadSessionCheckpoint's taxonomy (NotFound / InvalidArgument /
/// DataLoss).
///
/// Fault injection: SaveSessionCheckpoint honors the `checkpoint.write`
/// failpoint (util/failpoint.hpp) — error and short-write actions on the
/// temp-file write, replacing the old internal::g_checkpoint_write_limit
/// hook.
Status ValidateSessionCheckpoint(const std::string& path);

/// Restores a session saved by SaveSessionCheckpoint. `knobs`, when given,
/// replaces the saved runtime knobs (threads, descent-cache budget) — the
/// determinism contract makes this invisible in every result.
Result<EngineSession> LoadSessionCheckpoint(const std::string& path,
                                            const SessionKnobs* knobs = nullptr);

/// In-memory variants (testing, alternative transports): the byte string is
/// exactly the file contents.
std::string SerializeSessionCheckpoint(const EngineSession& session);
Result<EngineSession> DeserializeSessionCheckpoint(const std::string& bytes,
                                                   const SessionKnobs* knobs =
                                                       nullptr);

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_CHECKPOINT_HPP_
