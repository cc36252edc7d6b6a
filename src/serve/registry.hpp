// SessionRegistry — the daemon's pool of named EngineSessions, independent
// of any socket (tests drive it directly with threads; serve/server.cpp
// fronts it with the wire protocol).
//
// Concurrency model (docs/ARCHITECTURE.md "Serve mode"):
//   - Each named session lives in one Slot. Queries pin the slot's residency
//     with a shared lock (readers never block each other); demotion and
//     revival take it exclusively.
//   - Queries inside the computed prefix go through the session's Shared*
//     surface — lock-free counts, draw-mutex-serialized samples. A query
//     past the computed prefix becomes a writer: it takes the slot's
//     writer mutex (one extender per session) and runs ExtendTo, whose
//     engine publishes each level as it completes (computed_level() is the
//     one fence) — concurrent readers keep answering against the growing
//     prefix throughout. This read-or-extend policy lives in one private
//     helper (ReadOrExtend) that every query and ExtendTo call into.
//   - Eviction: after each operation, while the sum of resident table bytes
//     exceeds the budget, the least-recently-used slot whose residency lock
//     is free is demoted — EngineSession::Save to <spill_dir>/<name>.ckpt
//     (the PR 6 crash-safe path), then the in-memory session is dropped.
//     The next query revives it transparently via EngineSession::Load;
//     counter-keyed draw streams continue exactly where they stopped.
//
// Durability (docs/ARCHITECTURE.md "Durability & crash recovery"): with a
// spill directory configured, every Register/Unregister is journaled to
// <spill_dir>/MANIFEST (serve/manifest.hpp) before it is acknowledged, and
// Recover() rebuilds a crashed daemon's registry from the journal: sessions
// with a valid checkpoint revive lazily from it (draw cursor included);
// sessions whose checkpoint is missing are recomputed from the registration
// tuple on first touch — bit-identical by the determinism contract; sessions
// whose checkpoint is corrupt are quarantined (<name>.ckpt.corrupt) and
// recomputed the same way. A corrupt checkpoint therefore costs a rebuild,
// never an error and never the session.

#ifndef NFACOUNT_SERVE_REGISTRY_HPP_
#define NFACOUNT_SERVE_REGISTRY_HPP_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "fpras/session.hpp"
#include "serve/manifest.hpp"
#include "util/json.hpp"

namespace nfacount {
namespace serve {

/// Registry-wide configuration.
struct RegistryOptions {
  /// Directory for demoted sessions' checkpoints. Must exist and be
  /// writable; "" disables demotion (eviction becomes a no-op).
  std::string spill_dir;
  /// Total resident-table budget in bytes; < 0 = unlimited (no eviction).
  int64_t memory_budget_bytes = -1;
  /// Runtime knobs applied to every created and revived session (results
  /// are knob-invariant; this only tunes wall-clock).
  SessionKnobs knobs;
};

/// A pool of named EngineSessions with shared-read queries, single-writer
/// extension, and LRU demotion to disk checkpoints. All public methods are
/// thread-safe.
class SessionRegistry {
 public:
  /// The options are fixed for the registry's lifetime.
  explicit SessionRegistry(RegistryOptions options);

  /// Creates and registers a session named `name` for the automaton in
  /// `nfa_text` (automata/io.hpp format) with parameters derived at
  /// `horizon`. Invalid when the name is malformed or already registered.
  /// With a spill directory, the registration is journaled durably before
  /// it is acknowledged — a journal append failure fails the Register.
  Status Register(const std::string& name, const std::string& nfa_text,
                  int horizon, uint64_t seed, double eps, double delta);

  /// Removes session `name` durably: journals the removal, drops the
  /// in-memory session, and deletes its checkpoint (and any quarantine
  /// file). The name is free for re-registration afterwards. In-flight
  /// queries already past lookup finish against the old session.
  Status Unregister(const std::string& name);

  /// Rebuilds the registry from <spill_dir>/MANIFEST after a crash or
  /// restart: sweeps orphaned *.ckpt.tmp files, replays the journal, and
  /// creates one slot per surviving registration — lazily revived from its
  /// checkpoint when the checkpoint passes validation, lazily recomputed
  /// from the registration tuple when it is missing, and quarantined to
  /// <name>.ckpt.corrupt + lazily recomputed when it is corrupt. Recovery
  /// itself never fails on bad session data (only on an unusable spill
  /// directory) and requires an empty registry (call before serving).
  Status Recover();

  /// Demotes every resident session to its checkpoint (the drain step of a
  /// graceful shutdown — after SaveAll a clean restart loses nothing, draw
  /// cursors included). Blocks behind in-flight queries. Returns the first
  /// demotion failure but still attempts every slot; without a spill
  /// directory it is a no-op.
  Status SaveAll();

  /// |L(A_length)| for session `name`; extends the session when `length` is
  /// past the computed prefix (writer path), answers lock-free otherwise.
  Result<double> CountAtLength(const std::string& name, int length);

  /// N(q^length) for session `name`; same extension rule as CountAtLength.
  Result<double> CountFor(const std::string& name, StateId q, int length);

  /// Draws `count` words from L(A_length) of session `name`. The chunk
  /// consumes a contiguous range of the session's deterministic draw
  /// stream; *cursor_start (when non-null) receives the range's first
  /// attempt cursor so concurrent callers can reassemble the sequence.
  Result<std::vector<Word>> SampleWords(const std::string& name, int length,
                                        int64_t count,
                                        int64_t* cursor_start = nullptr);

  /// Extends session `name` to `level`; returns the resulting computed
  /// level (already there: no extension, no writer lock). The explicit
  /// form of the writer path.
  Result<int> ExtendTo(const std::string& name, int level);

  /// Demotes session `name` to its checkpoint now (regardless of budget).
  /// Returns true when it was resident and is now demoted, false when it
  /// was already demoted. FailedPrecondition when no spill dir is set.
  Result<bool> Evict(const std::string& name);

  /// Renders registry stats (session counts, resident bytes, demotions /
  /// revives, per-session state) into `out`.
  void RenderStats(JsonObject* out) const;

  /// Sum of the resident sessions' approximate table bytes.
  int64_t resident_bytes() const;
  /// Demotions performed so far (budget-driven + explicit Evict).
  int64_t demotions() const {
    return demotions_.load(std::memory_order_relaxed);
  }
  /// Transparent revivals performed so far.
  int64_t revives() const { return revives_.load(std::memory_order_relaxed); }
  /// Sessions rebuilt by Recover() (revivable + recomputable alike).
  int64_t sessions_recovered() const {
    return sessions_recovered_.load(std::memory_order_relaxed);
  }
  /// Corrupt checkpoints renamed to <name>.ckpt.corrupt so far.
  int64_t checkpoints_quarantined() const {
    return checkpoints_quarantined_.load(std::memory_order_relaxed);
  }
  /// Sessions recomputed from their registration tuple (checkpoint missing
  /// or quarantined) so far.
  int64_t recomputes() const {
    return recomputes_.load(std::memory_order_relaxed);
  }
  /// Orphaned *.ckpt.tmp files swept from the spill directory so far.
  int64_t tmp_swept() const {
    return tmp_swept_.load(std::memory_order_relaxed);
  }

  /// True iff `name` matches [A-Za-z0-9_.-]{1,128} — the names safe to embed
  /// in a spill path (no separators, no traversal, no empties).
  static bool ValidName(const std::string& name);

 private:
  /// One named session and its coordination state. Slots are created by
  /// Register/Recover and never destroyed while the registry lives
  /// (Unregister retires them to a graveyard instead of deleting), so bare
  /// Slot pointers handed out under the map lock stay valid.
  struct Slot {
    std::string name;          ///< registered name (spill file stem)
    std::string ckpt_path;     ///< spill path ("" when spilling is disabled)
    /// Registration tuple — with the determinism contract, a complete
    /// recipe for rebuilding the session bit-identically from nothing.
    std::string nfa_text;      ///< automaton (automata/io.hpp text format)
    int horizon = 0;           ///< session horizon
    uint64_t seed = 0;         ///< seed of the randomized run
    double eps = 0.3;          ///< accuracy ε
    double delta = 0.2;        ///< failure probability δ
    /// Residency pin: shared = a query is using `session`, exclusive =
    /// demote/revive swapping it.
    std::shared_mutex mu;
    /// Single-writer extension fence (held with mu shared, only inside
    /// ReadOrExtend's extend step).
    std::mutex writer_mu;
    /// Resident session; null while demoted to `ckpt_path` (or, after
    /// Recover, while awaiting first-touch revival/recompute).
    std::unique_ptr<EngineSession> session;
    /// A checkpoint believed valid exists on disk (written by demotion or
    /// found intact during recovery).
    bool spilled = false;
    /// Unregistered: the slot survives in the graveyard for in-flight
    /// pointer holders, but every new pin fails NotFound.
    std::atomic<bool> dead{false};
    /// LRU clock stamp of the last operation touching this slot.
    std::atomic<uint64_t> last_used{0};
    /// Last measured ApproxResidentBytes (0 while demoted).
    std::atomic<int64_t> bytes{0};
  };

  /// Looks up a slot by (validated) name; NotFound for unknown names.
  Result<Slot*> FindSlot(const std::string& name);

  /// The read-or-extend policy behind every query (CountAtLength, CountFor,
  /// SampleWords, ExtendTo), in one place: find the slot and stamp its LRU
  /// clock; pin it resident and try `read` (a session Shared* accessor); on
  /// FailedPrecondition (past the computed prefix) extend to `length` under
  /// the slot's writer mutex — the only place that mutex is taken — refresh
  /// the slot's bytes, and read again; then EnforceBudget. `read` is a
  /// lambda over EngineSession& returning a Result; a template, so the warm
  /// path allocates nothing.
  template <typename Read>
  auto ReadOrExtend(const std::string& name, int length, Read read)
      -> decltype(read(std::declval<EngineSession&>()));

  /// Ensures the slot's session is resident and returns with slot->mu held
  /// shared (caller releases via the returned lock). A demoted slot revives
  /// from its checkpoint; a slot whose checkpoint is missing or corrupt
  /// (quarantined on the spot) is recomputed from the registration tuple —
  /// so the only failures are NotFound (unregistered concurrently) and a
  /// recompute failure, which would require the original Register's inputs
  /// to have stopped working.
  Result<std::shared_lock<std::shared_mutex>> PinResident(Slot* slot);

  /// Rebuilds a session from the slot's registration tuple (counts and
  /// tables bit-identical to the lost original; the draw cursor restarts
  /// at 0 — only a checkpoint carries draw progress).
  Result<EngineSession> CreateFromTuple(const Slot& slot) const;

  /// Renames the slot's checkpoint to <name>.ckpt.corrupt (best effort)
  /// and bumps the quarantine counter. Residency lock held exclusively.
  void QuarantineCheckpointLocked(Slot* slot);

  /// Opens the manifest journal on first use (register_mu_ held).
  Status EnsureManifestLocked();

  /// Deletes orphaned *.ckpt.tmp files in the spill directory (crash
  /// between a checkpoint's tmp-write and rename leaks one).
  void SweepOrphanedTmps();

  /// Runs budget-driven LRU demotion until under budget or nothing
  /// evictable remains. Never blocks on a busy slot (try-lock skip).
  void EnforceBudget();

  /// Demotes one slot (residency lock already held exclusively).
  Status DemoteLocked(Slot* slot);

  RegistryOptions options_;
  /// Serializes Register/Unregister/Recover so the manifest's record order
  /// matches the registry's visible state transitions.
  std::mutex register_mu_;
  /// The durable journal; engaged lazily when a spill dir is configured.
  std::optional<ManifestJournal> manifest_;
  mutable std::mutex map_mu_;  ///< guards slots_ and retired_ (brief lookups)
  std::map<std::string, std::unique_ptr<Slot>> slots_;
  /// Unregistered slots, kept alive for the registry's lifetime so Slot
  /// pointers held by in-flight operations never dangle.
  std::vector<std::unique_ptr<Slot>> retired_;
  std::atomic<uint64_t> clock_{0};       ///< LRU clock
  std::atomic<int64_t> demotions_{0};
  std::atomic<int64_t> revives_{0};
  std::atomic<int64_t> demote_failures_{0};
  std::atomic<int64_t> sessions_recovered_{0};
  std::atomic<int64_t> checkpoints_quarantined_{0};
  std::atomic<int64_t> recomputes_{0};
  std::atomic<int64_t> tmp_swept_{0};
};

}  // namespace serve
}  // namespace nfacount

#endif  // NFACOUNT_SERVE_REGISTRY_HPP_
