#include "serve/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "automata/io.hpp"
#include "fpras/checkpoint.hpp"
#include "util/failpoint.hpp"

namespace nfacount {
namespace serve {

namespace {

/// CountOptions of a session the registry creates or rebuilds: the session's
/// own accuracy and seed plus the registry-wide runtime knobs.
CountOptions SessionOptions(const SessionKnobs& knobs, double eps,
                            double delta, uint64_t seed) {
  CountOptions co;
  co.eps = eps;
  co.delta = delta;
  co.seed = seed;
  co.num_threads = knobs.num_threads;
  co.descent_cache_capacity = knobs.descent_cache_capacity;
  return co;
}

}  // namespace

SessionRegistry::SessionRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  SweepOrphanedTmps();
}

void SessionRegistry::SweepOrphanedTmps() {
  if (options_.spill_dir.empty()) return;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.spill_dir, ec);
  if (ec) return;  // missing/unreadable spill dir surfaces at first save
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".ckpt.tmp";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::error_code rm_ec;
    if (std::filesystem::remove(entry.path(), rm_ec) && !rm_ec) {
      tmp_swept_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status SessionRegistry::EnsureManifestLocked() {
  if (manifest_.has_value()) return Status::Ok();
  Result<ManifestJournal> opened = ManifestJournal::Open(options_.spill_dir);
  if (!opened.ok()) return opened.status();
  manifest_.emplace(std::move(opened).value());
  return Status::Ok();
}

bool SessionRegistry::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status SessionRegistry::Register(const std::string& name,
                                 const std::string& nfa_text, int horizon,
                                 uint64_t seed, double eps, double delta) {
  if (!ValidName(name)) {
    return Status::Invalid("registry: malformed session name '" + name + "'");
  }
  Result<Nfa> parsed = ParseNfaText(nfa_text);
  if (!parsed.ok()) return parsed.status();

  // register_mu_ serializes registration state changes so the manifest's
  // record order always matches the registry's visible transitions (a
  // duplicate-name check, then the journal append, then the map insert
  // must not interleave with another Register/Unregister of the name).
  std::lock_guard<std::mutex> reg(register_mu_);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (slots_.count(name) != 0) {
      return Status::Invalid("registry: session '" + name +
                             "' is already registered");
    }
  }

  Result<EngineSession> created = EngineSession::Create(
      std::move(parsed).value(), horizon,
      SessionOptions(options_.knobs, eps, delta, seed));
  if (!created.ok()) return created.status();

  auto slot = std::make_unique<Slot>();
  slot->name = name;
  slot->nfa_text = nfa_text;
  slot->horizon = horizon;
  slot->seed = seed;
  slot->eps = eps;
  slot->delta = delta;
  if (!options_.spill_dir.empty()) {
    slot->ckpt_path = options_.spill_dir + "/" + name + ".ckpt";
    // Journal before acknowledging: once Register returns OK the session
    // must survive a crash, so the append failure fails the registration.
    NFA_RETURN_NOT_OK(EnsureManifestLocked());
    ManifestRecord record;
    record.name = name;
    record.nfa_text = nfa_text;
    record.horizon = horizon;
    record.seed = seed;
    record.eps = eps;
    record.delta = delta;
    record.flags = kManifestFlagReserved;
    NFA_RETURN_NOT_OK(manifest_->AppendRegister(record));
  }
  slot->session =
      std::make_unique<EngineSession>(std::move(created).value());
  slot->bytes.store(slot->session->ApproxResidentBytes(),
                    std::memory_order_relaxed);
  slot->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    slots_.emplace(name, std::move(slot));
  }
  EnforceBudget();
  return Status::Ok();
}

Status SessionRegistry::Unregister(const std::string& name) {
  if (!ValidName(name)) {
    return Status::Invalid("registry: malformed session name '" + name + "'");
  }
  std::lock_guard<std::mutex> reg(register_mu_);
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      return Status::NotFound("registry: no session named '" + name + "'");
    }
    slot = it->second.get();
  }
  // Journal first: if the tombstone cannot be made durable the session must
  // stay — otherwise a crash would resurrect what the caller saw removed.
  if (!options_.spill_dir.empty()) {
    NFA_RETURN_NOT_OK(EnsureManifestLocked());
    NFA_RETURN_NOT_OK(manifest_->AppendUnregister(name));
  }
  {
    // Waits for in-flight queries (shared pins) to finish, then tears the
    // session down. dead flips before the map erase, so a racer holding a
    // stale Slot* fails its next pin with NotFound.
    std::unique_lock<std::shared_mutex> ex(slot->mu);
    slot->dead.store(true, std::memory_order_release);
    slot->session.reset();
    slot->spilled = false;
    slot->bytes.store(0, std::memory_order_relaxed);
    if (!slot->ckpt_path.empty()) {
      std::remove(slot->ckpt_path.c_str());
      std::remove((slot->ckpt_path + ".corrupt").c_str());
    }
  }
  {
    // Retire rather than destroy: in-flight operations may still hold the
    // bare Slot pointer (the lifetime invariant slots have always had).
    std::lock_guard<std::mutex> lock(map_mu_);
    auto it = slots_.find(name);
    retired_.push_back(std::move(it->second));
    slots_.erase(it);
  }
  return Status::Ok();
}

Status SessionRegistry::Recover() {
  if (options_.spill_dir.empty()) {
    return Status::FailedPrecondition(
        "registry: recovery requires a spill directory");
  }
  std::lock_guard<std::mutex> reg(register_mu_);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (!slots_.empty()) {
      return Status::FailedPrecondition(
          "registry: Recover() requires an empty registry");
    }
  }
  SweepOrphanedTmps();
  NFA_RETURN_NOT_OK(EnsureManifestLocked());

  for (const auto& entry : manifest_->live()) {
    const ManifestRecord& record = entry.second;
    if (!ValidName(record.name)) continue;  // defensive: never build a path
    auto slot = std::make_unique<Slot>();
    slot->name = record.name;
    slot->ckpt_path = options_.spill_dir + "/" + record.name + ".ckpt";
    slot->nfa_text = record.nfa_text;
    slot->horizon = record.horizon;
    slot->seed = record.seed;
    slot->eps = record.eps;
    slot->delta = record.delta;
    // Triage the checkpoint now (cheap trailer check), but defer the
    // expensive revive/recompute to first touch — recovery of a large
    // registry is O(checkpoint bytes), not O(table rebuild).
    const Status valid = ValidateSessionCheckpoint(slot->ckpt_path);
    if (valid.ok()) {
      slot->spilled = true;
    } else if (valid.code() != StatusCode::kNotFound) {
      // Present but unreadable: quarantine for post-mortem, rebuild from
      // the tuple. Recovery itself never fails on corrupt session data.
      QuarantineCheckpointLocked(slot.get());
      slot->spilled = false;
    }
    slot->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    sessions_recovered_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(map_mu_);
    slots_.emplace(record.name, std::move(slot));
  }
  return Status::Ok();
}

Status SessionRegistry::SaveAll() {
  if (options_.spill_dir.empty()) return Status::Ok();
  std::vector<Slot*> snapshot;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    snapshot.reserve(slots_.size());
    for (auto& entry : slots_) snapshot.push_back(entry.second.get());
  }
  Status first_failure = Status::Ok();
  for (Slot* slot : snapshot) {
    std::unique_lock<std::shared_mutex> ex(slot->mu);
    if (slot->session == nullptr) continue;
    const Status demoted = DemoteLocked(slot);
    if (!demoted.ok() && first_failure.ok()) first_failure = demoted;
  }
  return first_failure;
}

Result<EngineSession> SessionRegistry::CreateFromTuple(
    const Slot& slot) const {
  Result<Nfa> parsed = ParseNfaText(slot.nfa_text);
  if (!parsed.ok()) return parsed.status();
  return EngineSession::Create(
      std::move(parsed).value(), slot.horizon,
      SessionOptions(options_.knobs, slot.eps, slot.delta, slot.seed));
}

void SessionRegistry::QuarantineCheckpointLocked(Slot* slot) {
  if (slot->ckpt_path.empty()) return;
  const std::string quarantine_path = slot->ckpt_path + ".corrupt";
  if (std::rename(slot->ckpt_path.c_str(), quarantine_path.c_str()) == 0) {
    checkpoints_quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<SessionRegistry::Slot*> SessionRegistry::FindSlot(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("registry: no session named '" + name + "'");
  }
  return it->second.get();
}

Result<std::shared_lock<std::shared_mutex>> SessionRegistry::PinResident(
    Slot* slot) {
  for (;;) {
    if (slot->dead.load(std::memory_order_acquire)) {
      return Status::NotFound("registry: no session named '" + slot->name +
                              "'");
    }
    std::shared_lock<std::shared_mutex> pin(slot->mu);
    if (slot->session != nullptr) return pin;
    pin.unlock();
    // Not resident: upgrade to exclusive and revive or rebuild. Another
    // thread may win the race — re-check under the exclusive lock.
    std::unique_lock<std::shared_mutex> ex(slot->mu);
    if (slot->dead.load(std::memory_order_acquire)) {
      return Status::NotFound("registry: no session named '" + slot->name +
                              "'");
    }
    if (slot->session == nullptr) {
      if (slot->spilled) {
        const failpoint::Eval fault = failpoint::Check("registry.revive");
        Result<EngineSession> revived =
            fault.fires()
                ? Result<EngineSession>(Status::DataLoss(
                      "failpoint registry.revive: injected failure: " +
                      slot->ckpt_path))
                : EngineSession::Load(slot->ckpt_path, &options_.knobs);
        if (revived.ok()) {
          slot->session =
              std::make_unique<EngineSession>(std::move(revived).value());
          slot->bytes.store(slot->session->ApproxResidentBytes(),
                            std::memory_order_relaxed);
          revives_.fetch_add(1, std::memory_order_relaxed);
        } else if (revived.status().code() == StatusCode::kNotFound) {
          // Checkpoint deleted out from under us: fall through to a
          // tuple rebuild.
          slot->spilled = false;
        } else {
          // Corrupt (or injected) checkpoint: quarantine it for
          // post-mortem, then fall through to a tuple rebuild — the query
          // still succeeds, only the draw cursor is lost with the
          // checkpoint.
          QuarantineCheckpointLocked(slot);
          slot->spilled = false;
        }
      }
      if (slot->session == nullptr && !slot->spilled) {
        Result<EngineSession> rebuilt = CreateFromTuple(*slot);
        if (!rebuilt.ok()) {
          // The original Register's inputs stopped working — nothing
          // transparent left to try; fail this query.
          return rebuilt.status();
        }
        slot->session =
            std::make_unique<EngineSession>(std::move(rebuilt).value());
        slot->bytes.store(slot->session->ApproxResidentBytes(),
                          std::memory_order_relaxed);
        recomputes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Loop back to retake the lock in shared mode.
  }
}

template <typename Read>
auto SessionRegistry::ReadOrExtend(const std::string& name, int length,
                                   Read read) -> decltype(read(
                                   std::declval<EngineSession&>())) {
  using Out = decltype(read(std::declval<EngineSession&>()));
  Slot* slot = nullptr;
  NFA_ASSIGN_OR_RETURN(slot, FindSlot(name));
  slot->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  Result<std::shared_lock<std::shared_mutex>> pin = PinResident(slot);
  if (!pin.ok()) return pin.status();
  std::shared_lock<std::shared_mutex> lock = std::move(pin).value();
  EngineSession& session = *slot->session;
  Out out = read(session);
  if (!out.ok() && out.status().code() == StatusCode::kFailedPrecondition) {
    // Past the computed prefix: become the (single) writer and extend. A
    // failed extension flows into `out` (no early return) so the trailing
    // EnforceBudget() still runs — a partial extension may have grown the
    // tables past the budget.
    Status extended;
    {
      std::lock_guard<std::mutex> writer(slot->writer_mu);
      extended = session.ExtendTo(length);
      slot->bytes.store(session.ApproxResidentBytes(),
                        std::memory_order_relaxed);
    }
    out = extended.ok() ? read(session) : Out(extended);
  }
  lock.unlock();  // EnforceBudget demotes under exclusive residency locks
  EnforceBudget();
  return out;
}

Result<double> SessionRegistry::CountAtLength(const std::string& name,
                                              int length) {
  return ReadOrExtend(name, length, [length](EngineSession& session) {
    return session.SharedCountAtLength(length);
  });
}

Result<double> SessionRegistry::CountFor(const std::string& name, StateId q,
                                         int length) {
  return ReadOrExtend(name, length, [q, length](EngineSession& session) {
    return session.SharedCountFor(q, length);
  });
}

Result<std::vector<Word>> SessionRegistry::SampleWords(const std::string& name,
                                                       int length,
                                                       int64_t count,
                                                       int64_t* cursor_start) {
  return ReadOrExtend(name, length, [&](EngineSession& session) {
    return session.SharedSampleWords(length, count, cursor_start);
  });
}

Result<int> SessionRegistry::ExtendTo(const std::string& name, int level) {
  // The read succeeds once `level` is computed; anything else (including
  // a level outside [0, horizon]) goes through the writer half, which
  // extends or reports ExtendTo's own status.
  return ReadOrExtend(name, level, [level](EngineSession& session) {
    const int computed = session.computed_level();
    if (level < 0 || level > computed) {
      return Result<int>(Status::FailedPrecondition("level not computed"));
    }
    return Result<int>(computed);
  });
}

Result<bool> SessionRegistry::Evict(const std::string& name) {
  if (options_.spill_dir.empty()) {
    return Status::FailedPrecondition(
        "registry: eviction requires a spill directory");
  }
  Slot* slot = nullptr;
  NFA_ASSIGN_OR_RETURN(slot, FindSlot(name));
  std::unique_lock<std::shared_mutex> ex(slot->mu);
  if (slot->session == nullptr) return false;
  NFA_RETURN_NOT_OK(DemoteLocked(slot));
  return true;
}

Status SessionRegistry::DemoteLocked(Slot* slot) {
  Status saved = slot->session->Save(slot->ckpt_path);
  if (!saved.ok()) {
    demote_failures_.fetch_add(1, std::memory_order_relaxed);
    return saved;
  }
  slot->session.reset();
  slot->spilled = true;
  slot->bytes.store(0, std::memory_order_relaxed);
  demotions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void SessionRegistry::EnforceBudget() {
  if (options_.memory_budget_bytes < 0 || options_.spill_dir.empty()) return;
  for (;;) {
    if (resident_bytes() <= options_.memory_budget_bytes) return;
    // Snapshot the slots, oldest stamp first. Residency is only checked
    // under each slot's lock (try-lock: never wait behind a live query).
    std::vector<Slot*> candidates;
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      candidates.reserve(slots_.size());
      for (auto& entry : slots_) candidates.push_back(entry.second.get());
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Slot* a, const Slot* b) {
                return a->last_used.load(std::memory_order_relaxed) <
                       b->last_used.load(std::memory_order_relaxed);
              });
    bool progressed = false;
    for (Slot* slot : candidates) {
      std::unique_lock<std::shared_mutex> ex(slot->mu, std::try_to_lock);
      if (!ex.owns_lock()) continue;
      if (slot->session == nullptr) continue;
      if (!DemoteLocked(slot).ok()) continue;
      progressed = true;
      if (resident_bytes() <= options_.memory_budget_bytes) return;
    }
    // Everything evictable is evicted (or busy); give up rather than spin.
    if (!progressed) return;
  }
}

int64_t SessionRegistry::resident_bytes() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(map_mu_);
  for (const auto& entry : slots_) {
    total += entry.second->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void SessionRegistry::RenderStats(JsonObject* out) const {
  std::vector<Slot*> snapshot;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    snapshot.reserve(slots_.size());
    for (const auto& entry : slots_) snapshot.push_back(entry.second.get());
  }
  out->Set("sessions", static_cast<int64_t>(snapshot.size()));
  out->Set("resident_bytes", resident_bytes());
  out->Set("memory_budget_bytes", options_.memory_budget_bytes);
  out->Set("demotions", demotions_.load(std::memory_order_relaxed));
  out->Set("revives", revives_.load(std::memory_order_relaxed));
  out->Set("demote_failures",
           demote_failures_.load(std::memory_order_relaxed));
  out->Set("sessions_recovered",
           sessions_recovered_.load(std::memory_order_relaxed));
  out->Set("checkpoints_quarantined",
           checkpoints_quarantined_.load(std::memory_order_relaxed));
  out->Set("recomputes", recomputes_.load(std::memory_order_relaxed));
  out->Set("tmp_swept", tmp_swept_.load(std::memory_order_relaxed));
  std::string sessions_json = "[";
  bool first = true;
  for (Slot* slot : snapshot) {
    JsonObject entry;
    entry.Set("name", slot->name);
    entry.Set("bytes", slot->bytes.load(std::memory_order_relaxed));
    entry.Set("last_used",
              static_cast<int64_t>(
                  slot->last_used.load(std::memory_order_relaxed)));
    // Session-derived fields need the residency pin; skip them (rather
    // than block stats) when the slot is busy being demoted or revived.
    std::shared_lock<std::shared_mutex> pin(slot->mu, std::try_to_lock);
    if (pin.owns_lock()) {
      const bool resident = slot->session != nullptr;
      entry.Set("resident", resident);
      if (resident) {
        entry.Set("published_level",
                  static_cast<int64_t>(slot->session->computed_level()));
        const FprasEngine::CacheCounters cc = slot->session->cache_counters();
        entry.Set("memo_hits", cc.memo_hits);
        entry.Set("memo_misses", cc.memo_misses);
        entry.Set("descent_hits", cc.descent_hits);
        entry.Set("descent_misses", cc.descent_misses);
        entry.Set("descent_entries", cc.descent_entries);
        entry.Set("descent_bytes", cc.descent_bytes);
      }
    }
    if (!first) sessions_json += ",";
    first = false;
    sessions_json += entry.Render();
  }
  sessions_json += "]";
  out->SetRaw("per_session", sessions_json);
}

}  // namespace serve
}  // namespace nfacount
