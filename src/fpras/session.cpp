#include "fpras/session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "fpras/checkpoint.hpp"

namespace nfacount {

static_assert(EngineSession::kAttemptsPerDraw <=
                  std::numeric_limits<int64_t>::max() /
                      EngineSession::kMaxDrawsPerCall,
              "kAttemptsPerDraw * count must not overflow for capped counts");

EngineSession::EngineSession(std::unique_ptr<Nfa> nfa,
                             std::unique_ptr<FprasEngine> engine,
                             uint64_t seed)
    : nfa_(std::move(nfa)),
      engine_(std::move(engine)),
      seed_(seed),
      draw_mu_(std::make_unique<std::mutex>()) {}

Result<EngineSession> EngineSession::Create(const Nfa& nfa, int horizon,
                                            const CountOptions& options) {
  NFA_RETURN_NOT_OK(nfa.Validate());
  if (horizon < 0) return Status::Invalid("horizon must be >= 0");

  FprasParams params;
  NFA_ASSIGN_OR_RETURN(params,
                       ParamsFromOptions(options, nfa.num_states(), horizon));

  auto owned = std::make_unique<Nfa>(nfa);
  auto engine =
      std::make_unique<FprasEngine>(owned.get(), params, options.seed);
  NFA_RETURN_NOT_OK(engine->Prepare());
  return EngineSession(std::move(owned), std::move(engine), options.seed);
}

Result<EngineSession> EngineSession::Restore(std::unique_ptr<Nfa> nfa,
                                             const FprasParams& params,
                                             uint64_t seed, int computed_level,
                                             std::vector<LevelState> levels,
                                             int64_t draw_cursor) {
  if (nfa == nullptr) return Status::Invalid("Restore: null automaton");
  NFA_RETURN_NOT_OK(nfa->Validate());
  if (params.m != nfa->num_states()) {
    return Status::Invalid("Restore: params.m does not match the automaton");
  }
  auto engine = std::make_unique<FprasEngine>(nfa.get(), params, seed);
  NFA_RETURN_NOT_OK(engine->Prepare());
  NFA_RETURN_NOT_OK(engine->RestoreComputedState(
      computed_level, std::move(levels), draw_cursor));
  return EngineSession(std::move(nfa), std::move(engine), seed);
}

Status EngineSession::CheckLength(int length) const {
  if (length < 0) return Status::Invalid("length must be >= 0");
  if (length > horizon()) {
    return Status::OutOfRange(
        "length exceeds the session horizon; the horizon fixed the "
        "parameter derivation — create a session with a larger horizon");
  }
  return Status::Ok();
}

Status EngineSession::ExtendTo(int level) {
  NFA_RETURN_NOT_OK(CheckLength(level));
  // The engine release-publishes each level (cells and |L(A_ℓ)|) as its
  // sweep finishes, so readers see level-complete prefixes mid-extension.
  return engine_->RunToLevel(level);
}

// The writer-side queries are ExtendTo + the Shared* read: once extended,
// `length` is computed and the writer reads what readers read, running no
// AppUnion of its own (the draw mutex is uncontended here).

Result<double> EngineSession::CountAtLength(int length) {
  NFA_RETURN_NOT_OK(ExtendTo(length));
  return SharedCountAtLength(length);
}

Result<double> EngineSession::CountFor(StateId q, int length) {
  NFA_RETURN_NOT_OK(ExtendTo(length));
  return SharedCountFor(q, length);
}

Result<std::vector<Word>> EngineSession::SampleWords(int length,
                                                     int64_t count) {
  NFA_RETURN_NOT_OK(ExtendTo(length));
  return SharedSampleWords(length, count);
}

Result<double> EngineSession::SharedCountAtLength(int length) const {
  NFA_RETURN_NOT_OK(CheckLength(length));
  if (length > computed_level()) {
    return Status::FailedPrecondition(
        "length not yet computed; extend the session first");
  }
  return engine_->EstimateAtLength(length);
}

Result<double> EngineSession::SharedCountFor(StateId q, int length) const {
  NFA_RETURN_NOT_OK(CheckLength(length));
  if (q < 0 || q >= nfa_->num_states()) {
    return Status::Invalid("CountFor: state out of [0, m)");
  }
  if (length > computed_level()) {
    return Status::FailedPrecondition(
        "length not yet computed; extend the session first");
  }
  // The acquire above makes level `length` frozen and fully visible.
  return engine_->CountEstimateFor(q, length);
}

Result<std::vector<Word>> EngineSession::SharedSampleWords(
    int length, int64_t count, int64_t* cursor_start) {
  NFA_RETURN_NOT_OK(CheckLength(length));
  if (count < 0) return Status::Invalid("draw count must be >= 0");
  if (count > kMaxDrawsPerCall) {
    return Status::Invalid(
        "draw count exceeds kMaxDrawsPerCall; split the request into "
        "chunks (the draw stream concatenates seamlessly)");
  }
  if (length > computed_level()) {
    return Status::FailedPrecondition(
        "length not yet computed; extend the session first");
  }
  // One draw chunk at a time: the counter-keyed draw stream is a single
  // sequential sequence, and each chunk consumes a contiguous attempt range
  // starting at the cursor we report back to the caller.
  std::lock_guard<std::mutex> lock(*draw_mu_);
  if (cursor_start != nullptr) *cursor_start = engine_->draw_cursor();
  std::vector<Word> out;
  if (count == 0) return out;
  if (length == 0) {
    if (!nfa_->IsAccepting(nfa_->initial())) {
      return Status::NotFound("L(A_0) is empty");
    }
    out.assign(static_cast<size_t>(count), Word{});
    return out;
  }
  if (!(engine_->EstimateAtLength(length) > 0.0)) {
    return Status::NotFound("language estimated empty at this length");
  }
  out.reserve(static_cast<size_t>(count));
  // Exact consumption: the draw cursor advances only through the accept
  // that completes the request, so the concatenation of all draw chunks —
  // across any interleaving of lengths, extensions, checkpoint save/resume
  // boundaries, and runtime-knob changes — is one deterministic sequence
  // (see FprasEngine::SampleAcceptedInto).
  const int64_t appended = engine_->SampleAcceptedInto(
      length, kAttemptsPerDraw * count, count, &out);
  if (appended < count) {
    return Status::ResourceExhausted(
        "sampling attempts exhausted; tables likely inaccurate");
  }
  return out;
}

int64_t EngineSession::ApproxResidentBytes() const {
  return engine_->ApproxTableBytes();
}

Status EngineSession::Save(const std::string& path) const {
  return SaveSessionCheckpoint(*this, path);
}

Result<EngineSession> EngineSession::Load(const std::string& path,
                                          const SessionKnobs* knobs) {
  return LoadSessionCheckpoint(path, knobs);
}

}  // namespace nfacount
