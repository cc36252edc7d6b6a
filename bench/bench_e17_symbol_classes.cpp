// E17 — Symbol-class alphabet compression at corpus-scale alphabets.
//
// The per-symbol hot loops — UnionSizesInto's descent distribution and the
// lockstep sampler's draw step — iterate the alphabet once per (state,
// level) cell and once per walk level. Symbol-class compression
// (automata/symbol_classes.hpp) collapses Σ to its C distinct transition
// rows, making both loops O(C): one PredSet expansion + one AppUnion call
// per class, weighted by member count, and one C-ary discrete draw followed
// by a uniform member pick. On corpus-style automata C stays a handful while
// |Σ| grows to tokenizer-vocab sizes.
//
// Measured on CorpusTokenNfa(pattern_len=4, |Σ|, categories=4) — C = 4
// distinct rows at every alphabet size — at |Σ| = 2^8, 2^11, 2^14, n = 8:
//   build     t(create + sweep 0..n), which should stay nearly flat in |Σ|
//   draws/s   post-run almost-uniform draws at the top level
//   envelope  the estimate's signed relative error against the exact DFA
//             count, which must stay within ±35%
// Plus the E3 row: RandomNfa(128, 0.3, 0.25), a binary alphabet with
// (almost surely) all-distinct rows, so the partition is trivial and the
// class layer has nothing to compress.
//
// The class layer is always on; the on/off ratios measured while it could
// still be switched off are kept in bench/README.md.

#include <algorithm>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "automata/symbol_classes.hpp"
#include "bench_common.hpp"
#include "fpras/fpras.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

constexpr int64_t kDraws = 256;  ///< draws per timed repetition
constexpr int kDrawReps = 3;     ///< best-of repetitions for draws/s

/// Measurements of one session built from nothing on one automaton.
struct Measurement {
  double t_build = 0.0;    ///< create + ExtendTo(n) from nothing
  double t_draws = 0.0;    ///< best-of kDraws post-run draws at level n
  double draws_per_s = 0.0;
  double estimate = 0.0;   ///< |L(A_n)| estimate
  bool ok = false;
};

Measurement Measure(const Nfa& nfa, int n, uint64_t seed) {
  Measurement s;
  WallTimer build_timer;
  Result<EngineSession> session =
      EngineSession::Create(nfa, n, DefaultOptions(seed));
  if (!session.ok() || !session->ExtendTo(n).ok()) return s;
  s.t_build = build_timer.ElapsedSeconds();

  Result<double> estimate = session->CountAtLength(n);
  if (!estimate.ok()) return s;
  s.estimate = *estimate;

  s.t_draws = 1e300;
  for (int rep = 0; rep < kDrawReps; ++rep) {
    WallTimer draw_timer;
    Result<std::vector<Word>> draws = session->SampleWords(n, kDraws);
    if (!draws.ok()) return s;
    s.t_draws = std::min(s.t_draws, draw_timer.ElapsedSeconds());
  }
  s.draws_per_s =
      s.t_draws > 0.0 ? static_cast<double>(kDraws) / s.t_draws : 0.0;
  s.ok = true;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("e17_symbol_classes");
  const uint64_t seed = 20240808;
  const int n = 8;
  const int pattern_len = 4;
  const int categories = 4;

  std::printf("E17 — symbol-class compression at corpus-scale alphabets\n");
  std::printf(
      "(CorpusTokenNfa(len=%d, |Sigma|, cats=%d), eps=0.3 delta=0.2, n=%d, "
      "draws=%lld, seed=%llu)\n",
      pattern_len, categories, n, static_cast<long long>(kDraws),
      static_cast<unsigned long long>(seed));

  report.config()
      .Set("family", "CorpusTokenNfa(4, sigma, 4)")
      .Set("n", n)
      .Set("pattern_len", pattern_len)
      .Set("categories", categories)
      .Set("eps", 0.3)
      .Set("delta", 0.2)
      .Set("draws", kDraws)
      .Set("draw_reps", kDrawReps)
      .Set("seed", seed);

  Section("corpus family (times in seconds)");
  Row({"sigma", "C", "build", "draws/s", "envelope"}, /*width=*/11);
  double build_top = 0.0;
  double draws_top = 0.0;
  bool all_in_envelope = true;
  for (int log2_sigma : {8, 11, 14}) {
    const int sigma = 1 << log2_sigma;
    const Nfa nfa = CorpusTokenNfa(pattern_len, sigma, categories);
    const int num_classes = SymbolClassIndex::Compute(nfa).num_classes();
    const double truth = ExactOrNeg(nfa, n);
    const Measurement m = Measure(nfa, n, seed);
    if (!m.ok || truth <= 0.0) {
      std::fprintf(stderr, "E17: measurement failed at sigma=%d\n", sigma);
      return 1;
    }
    if (log2_sigma == 14) {
      build_top = m.t_build;
      draws_top = m.draws_per_s;
    }
    const double envelope = m.estimate / truth - 1.0;
    const bool in_envelope = std::abs(envelope) <= 0.35;
    all_in_envelope = all_in_envelope && in_envelope;
    Row({FmtInt(sigma), FmtInt(num_classes), Fmt(m.t_build, "%.3f"),
         Fmt(m.draws_per_s, "%.0f"), Fmt(envelope, "%+.3f")},
        /*width=*/11);
    JsonObject row;
    row.Set("sigma", sigma)
        .Set("num_classes", num_classes)
        .Set("n", n)
        .Set("t_build_seconds", m.t_build)
        .Set("t_draws_seconds", m.t_draws)
        .Set("draws_per_s", m.draws_per_s)
        .Set("estimate", m.estimate)
        .Set("exact", truth)
        .Set("envelope_rel", envelope)
        .Set("in_envelope", in_envelope);
    report.AddRow("corpus_alphabet", std::move(row));
  }

  // The trivial-partition row: a binary alphabet with all-distinct rows,
  // where the class layer runs but has nothing to compress.
  Section("E3 row (trivial partition, m=128)");
  Row({"m", "C", "build", "draws/s"}, /*width=*/11);
  Rng rng(2024);
  const Nfa e3 = RandomNfa(128, 0.3, 0.25, rng);
  const int e3_n = 6;
  const int e3_classes = SymbolClassIndex::Compute(e3).num_classes();
  const Measurement e3_m = Measure(e3, e3_n, seed);
  if (!e3_m.ok) {
    std::fprintf(stderr, "E17: E3 row failed\n");
    return 1;
  }
  Row({FmtInt(128), FmtInt(e3_classes), Fmt(e3_m.t_build, "%.3f"),
       Fmt(e3_m.draws_per_s, "%.0f")},
      /*width=*/11);
  JsonObject e3_row;
  e3_row.Set("m", 128)
      .Set("n", e3_n)
      .Set("num_classes", e3_classes)
      .Set("t_build_seconds", e3_m.t_build)
      .Set("draws_per_s", e3_m.draws_per_s);
  report.AddRow("e3_trivial_partition", std::move(e3_row));

  report.metrics()
      .Set("t_build_seconds_sigma_2_14", build_top)
      .Set("draws_per_s_sigma_2_14", draws_top)
      .Set("all_in_envelope", all_in_envelope);

  std::printf(
      "\nReading: with C = 4 distinct rows at every |Sigma|, build time and\n"
      "draws/s should barely move as the alphabet grows 64x. envelope is\n"
      "the signed relative error against the exact DFA count.\n");

  report.WriteTo(JsonPathArg(argc, argv));
  return all_in_envelope ? 0 : 1;
}
