// E7 — Sampler quality (Inv-2 / Theorem 2): the multiset S(q^ℓ) should be
// close in total variation distance to i.i.d. uniform over L(q^ℓ).
//
// We measure (a) the empirical TV of fresh Algorithm-2 draws to the uniform
// distribution over exactly-enumerated languages, per family, and (b) the TV
// across levels ℓ on one automaton — the quantity Lemma 5 bounds by η per
// (state, level).

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "util/stats.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

constexpr int64_t kDraws = 4000;

void FamilyTv() {
  Section("E7a: empirical TV of accepted-word sampling (4000 draws, n=7)");
  Row({"family", "|L|", "tv_uniform", "chi2", "sampling_floor"});
  const int n = 7;
  for (const FamilyInstance& family : StandardFamilies(5, n, 3)) {
    Result<std::vector<Word>> lang = EnumerateAccepted(family.nfa, n);
    if (!lang.ok() || lang->empty() || lang->size() > 600) continue;
    CountOptions options;
    options.eps = 0.3;
    options.delta = 0.2;
    options.seed = 101;
    Result<EngineSession> session =
        EngineSession::Create(family.nfa, n, options);
    if (!session.ok()) continue;
    Result<std::vector<Word>> words = session->SampleWords(n, kDraws);
    if (!words.ok()) continue;
    std::map<std::string, int64_t> histogram;
    for (const Word& w : *words) ++histogram[WordToString(w)];
    const int64_t support = static_cast<int64_t>(lang->size());
    // Even a perfect sampler shows TV ~ sqrt(support/draws)/2 from noise.
    double floor = 0.5 * std::sqrt(static_cast<double>(support) / kDraws);
    Row({family.name, FmtInt(support),
         Fmt(EmpiricalTvToUniform(histogram, kDraws, support), "%.4f"),
         Fmt(ChiSquareUniform(histogram, kDraws, support), "%.1f"),
         Fmt(floor, "%.4f")});
  }
  std::printf("(tv_uniform ≈ sampling_floor means the sampler is as uniform\n"
              " as statistically detectable at this draw count)\n");
}

void PerLevelTv() {
  Section("E7b: per-level TV on substring('101') — Inv-2 across levels");
  Row({"level", "|L(q,l)|", "tv_uniform", "floor"});
  Nfa nfa = SubstringNfa(Word{1, 0, 1});
  const int n = 8;
  Result<FprasParams> params = FprasParams::Make(
      Schedule::kFaster, nfa.num_states(), n, 0.3, 0.2, Calibration::Practical());
  if (!params.ok()) return;
  FprasEngine engine(&nfa, *params, 7);
  if (!engine.Run().ok()) return;

  // The accepting sink state (index 3 in SubstringNfa construction) is the
  // only accepting state, so L(A_level) = L(3^level).
  const StateId target = 3;
  for (int level = 3; level <= n; ++level) {
    Result<std::vector<Word>> lang = EnumerateStateLevel(nfa, target, level);
    if (!lang.ok() || lang->empty()) continue;
    std::map<std::string, int64_t> histogram;
    int64_t got = 0;
    for (int64_t i = 0; i < 3 * kDraws && got < kDraws; ++i) {
      std::vector<Word> w;  // one attempt: a word or a rejection
      engine.SampleAcceptedInto(level, 1, 1, &w);
      if (w.empty()) continue;
      ++histogram[WordToString(w.front())];
      ++got;
    }
    if (got == 0) continue;
    const int64_t support = static_cast<int64_t>(lang->size());
    double floor = 0.5 * std::sqrt(static_cast<double>(support) / got);
    Row({FmtInt(level), FmtInt(support),
         Fmt(EmpiricalTvToUniform(histogram, got, support), "%.4f"),
         Fmt(floor, "%.4f")});
  }
}

}  // namespace

int main() {
  std::printf("E7 — sampler closeness to uniform (TV distance, Inv-2)\n");
  FamilyTv();
  PerLevelTv();
  return 0;
}
