#include "fpras/sampler.hpp"

namespace nfacount {

Result<WordSampler> WordSampler::Build(const Nfa& nfa, int n,
                                       const SamplerOptions& options) {
  NFA_RETURN_NOT_OK(nfa.Validate());
  if (n < 0) return Status::Invalid("n must be >= 0");

  FprasParams params;
  NFA_ASSIGN_OR_RETURN(params,
                       FprasParams::Make(Schedule::kFaster, nfa.num_states(),
                                         std::max(n, 1), options.eps,
                                         options.delta, options.calibration));
  params.n = n == 0 ? 0 : params.n;
  params.num_threads = options.num_threads;
  params.batch_width = options.batch_width;
  params.simd_kernels = options.simd_kernels;
  if (options.descent_cache_capacity >= 0) {
    params.descent_cache_capacity = options.descent_cache_capacity;
  }
  params.symbol_classes = options.symbol_classes;
  auto engine = std::make_unique<FprasEngine>(&nfa, params, options.seed);
  NFA_RETURN_NOT_OK(engine->Run());
  return WordSampler(&nfa, std::move(engine), options);
}

Result<Word> WordSampler::Sample() {
  const int n = engine_->params().n;
  if (n == 0) {
    if (nfa_->IsAccepting(nfa_->initial())) return Word{};
    return Status::NotFound("L(A_0) is empty");
  }
  if (!(engine_->Estimate() > 0.0)) {
    return Status::NotFound("language estimated empty");
  }
  if (queue_next_ >= queue_.size()) {
    // Refill: run lockstep batches until at least one walk accepts. Every
    // accepted walk of the executed batches is an independent almost-
    // uniform draw, so the surplus serves the following Sample() calls.
    queue_.clear();
    queue_next_ = 0;
    const int64_t got = engine_->SampleAcceptedInto(
        nfa_->accepting(), n, options_.max_attempts_per_draw,
        /*min_accepts=*/1, &queue_);
    if (got == 0) {
      return Status::ResourceExhausted(
          "all sampling attempts rejected; tables likely inaccurate");
    }
  }
  return std::move(queue_[queue_next_++]);
}

Result<StoredSample> WordSampler::SampleStored() {
  Word word;
  NFA_ASSIGN_OR_RETURN(word, Sample());
  return engine_->unrolled().MakeSample(std::move(word));
}

Result<std::vector<Word>> WordSampler::SampleMany(int64_t count) {
  std::vector<Word> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Word w;
    NFA_ASSIGN_OR_RETURN(w, Sample());
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace nfacount
