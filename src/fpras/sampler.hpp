// Almost-uniform generation from L(A_n) — the companion problem the FPRAS is
// built from (Jerrum-Valiant-Vazirani inter-reducibility, §1.1 of the paper).
// WordSampler owns one FPRAS engine run and serves repeated draws; each draw
// retries Algorithm 2 until it returns a word (Theorem 2(2): each attempt
// succeeds with probability ≥ 2/(3e²) given accurate tables).
//
// Draws run on the engine's flat CSR hot path (see automata/unrolled.hpp).

#ifndef NFACOUNT_FPRAS_SAMPLER_HPP_
#define NFACOUNT_FPRAS_SAMPLER_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "fpras/estimator.hpp"

namespace nfacount {

/// Options for building a WordSampler.
struct SamplerOptions {
  /// TV-closeness parameter of the sample distribution (plays the role of ε).
  double eps = 0.2;
  /// Failure probability of the table-building FPRAS run.
  double delta = 0.1;
  /// Constant-factor calibration of the worst-case budgets (params.hpp).
  Calibration calibration = Calibration::Practical();
  /// Seed of the engine run and of all draws.
  uint64_t seed = 0xa110ca7eULL;
  /// Give up after this many rejected attempts per draw (well beyond the
  /// Theorem 2(2) bound; exceeding it indicates inaccurate tables).
  int max_attempts_per_draw = 4096;
  /// Worker threads of the table-building FPRAS run (1 = sequential, 0 = all
  /// hardware threads). Tables, estimates, and every subsequent draw are
  /// bit-identical for any value — see FprasParams::num_threads.
  int num_threads = 1;
  /// Candidate walks advanced in lockstep per plane sweep (0 = engine
  /// default). The draw sequence is bit-identical for every value — wider
  /// batches only let one sweep amortize the per-call union estimate over
  /// more accepted draws. See FprasParams::batch_width.
  int batch_width = 0;
  /// SIMD kernel table for the sampling plane (false = scalar; identical
  /// draws either way). See FprasParams::simd_kernels.
  bool simd_kernels = true;
  /// Cross-batch descent-cache entry budget (0 disables, -1 = engine
  /// default). Draw streams are bit-identical at every value — the cache
  /// only removes repeated per-(level, frontier) descent work. See
  /// FprasParams::descent_cache_capacity.
  int64_t descent_cache_capacity = -1;
  /// Symbol-class alphabet compression (same envelope either way; the two
  /// settings draw from different substreams). See
  /// FprasParams::symbol_classes.
  bool symbol_classes = true;
};

/// Draws words almost-uniformly from L(A_n).
class WordSampler {
 public:
  /// Runs the FPRAS once to build tables. Fails if the NFA is invalid.
  static Result<WordSampler> Build(const Nfa& nfa, int n,
                                   const SamplerOptions& options = {});

  /// One almost-uniform word, or NotFound if the language is empty /
  /// ResourceExhausted if every attempt was rejected.
  Result<Word> Sample();

  /// One draw returned together with its reach profile (the membership-
  /// oracle row AppUnion consumers store), computed on the forward CSR in
  /// one pass — the form downstream union estimates want, without a second
  /// simulation of the word.
  Result<StoredSample> SampleStored();

  /// `count` independent draws (each retried as in Sample()).
  Result<std::vector<Word>> SampleMany(int64_t count);

  /// Estimate of |L(A_n)| from the underlying FPRAS run.
  double CountEstimate() const { return engine_->Estimate(); }

  /// Counters of the underlying engine run plus all draws so far.
  const FprasDiagnostics& diagnostics() const { return engine_->diagnostics(); }

 private:
  WordSampler(const Nfa* nfa, std::unique_ptr<FprasEngine> engine,
              SamplerOptions options)
      : nfa_(nfa), engine_(std::move(engine)), options_(options) {}

  const Nfa* nfa_;
  std::unique_ptr<FprasEngine> engine_;
  SamplerOptions options_;
  /// Accepted words already produced by the engine's lockstep batches but
  /// not yet handed out: one plane sweep typically accepts several walks,
  /// and each Sample() call pops the next one in attempt order (so the draw
  /// sequence is independent of the batch width).
  std::vector<Word> queue_;
  size_t queue_next_ = 0;
};

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_SAMPLER_HPP_
