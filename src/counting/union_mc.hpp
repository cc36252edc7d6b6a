// Algorithm 1 of the paper: AppUnion — Monte-Carlo estimation of |∪ T_i| from
// per-set (membership oracle, pre-drawn sample list, size estimate) triples.
// A modification of the classic Karp-Luby union/DNF estimator [12]: instead
// of drawing fresh uniform samples from T_i, it consumes a pre-drawn list
// S_i; Theorem 1 gives the (ε,δ)(1+ε_sz) guarantee under the entangled
// uniform distribution.
//
// The estimator is templated over an Input type providing:
//   double  size_estimate() const;            // sz_i
//   int64_t num_samples()   const;            // |S_i|
//   const SampleT& Sample(int64_t idx) const; // S_i in draw order
//   bool    Contains(const SampleT&) const;   // membership oracle O_i
//
// A resampling variant (fresh draws, classic Karp-Luby) is provided for the
// DNF application and as a test oracle.

#ifndef NFACOUNT_COUNTING_UNION_MC_HPP_
#define NFACOUNT_COUNTING_UNION_MC_HPP_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace nfacount {

/// Batched membership oracle for AppUnion's covered-earlier checks.
///
/// Algorithm 1 asks, for a trial sample σ drawn from input i, whether σ lies
/// in any earlier set T_0..T_{i-1} — classically a loop of up to i individual
/// membership probes. When every sample carries a membership *profile* (a
/// Bitset with bit q set iff σ ∈ T-of-owner-q, cf. StoredSample::reach) the
/// whole loop collapses to one word-parallel intersection against a
/// precomputed prefix mask {owner_0, ..., owner_{i-1}}: O(m/64) instead of
/// O(i) dependent probes.
///
/// The object is a reusable scratch: Rebuild() re-derives the prefix masks
/// for one AppUnionBatched call without reallocating when sizes repeat.
class MembershipBatch {
 public:
  MembershipBatch() = default;

  /// Prepares prefix masks over a universe of `universe_bits` owner ids for
  /// the ordered owner list of one AppUnion call: prefix i covers
  /// owners[0..i).
  void Rebuild(size_t universe_bits, const std::vector<int>& owners);

  /// Covered-earlier check for a trial drawn from input `i`: true iff the
  /// sample's membership profile intersects {owners[0..i)}. Answers i probes
  /// in one scan.
  bool CoveredBefore(const Bitset& profile, size_t i) const {
    return profile.Intersects(prefix_[i]);
  }

  /// Prefix mask i, {owners[0..i)}, as raw words (the SampleBlock slab form
  /// of a profile is ANDed against it inline, with no per-sample Bitset).
  const Bitset& Prefix(size_t i) const { return prefix_[i]; }

  /// Number of inputs the current prefix masks cover.
  size_t size() const { return prefix_.size(); }

 private:
  std::vector<Bitset> prefix_;
};

/// Caller-owned scratch for AppUnionBatched, reused across the thousands of
/// calls one FPRAS run makes: the prefix-mask membership index, the
/// guide-table trial-draw index and the per-input draw counts (all rebuild
/// in place without reallocating when sizes repeat).
///
/// Thread safety: the AppUnion* estimators are pure functions of (inputs,
/// params, scratch, rng) — concurrent calls are safe iff each thread owns
/// its scratch and its Rng (the level-sweep executor keeps one
/// AppUnionScratch per worker slot; see FprasEngine::WorkerScratch).
struct AppUnionScratch {
  MembershipBatch batch;      ///< covered-earlier prefix masks
  DiscreteTable table;        ///< guide-table index draws over the k sizes
  std::vector<int64_t> draws; ///< c_i: completed trials drawn from input i
  std::vector<int64_t> limit; ///< draws of input i before the loop stops
};

/// What to do when an input's sample list runs out mid-call.
///
/// At faithful constants this is the low-probability Line-8 event of Alg. 1
/// (Theorem 1 Part 2 bounds it): the paper breaks out, and the Y/t estimate
/// silently loses the missing trials. Under calibrated constants ns can be
/// smaller than t, making starvation systematic — and the Y/t bias compounds
/// multiplicatively per level. kRecycle wraps the cursor (the list is an
/// empirical stand-in for "uniform with replacement", so re-reading it is the
/// natural calibrated semantics).
enum class StarvationPolicy {
  kBreak,    ///< paper-faithful: stop, divide by the full t
  kRecycle,  ///< wrap the cursor and keep drawing (calibrated default)
};

/// Parameters of one AppUnion invocation.
struct AppUnionParams {
  double eps = 0.1;    ///< multiplicative accuracy ε of this call
  double delta = 0.1;  ///< failure probability δ of this call
  double eps_sz = 0.0; ///< accuracy (1+ε_sz) of the input size estimates

  /// Calibration multiplier on the worst-case trial count (DESIGN.md §2,
  /// "Substitutions"). 1.0 = the paper's constant.
  double trial_scale = 1.0;
  int64_t min_trials = 8;               ///< floor applied after scaling
  int64_t max_trials = int64_t{1} << 40;///< cap applied after scaling

  /// What to do when a sample list runs out (see StarvationPolicy).
  StarvationPolicy starvation = StarvationPolicy::kBreak;
};

/// Diagnostics of one AppUnion invocation.
struct AppUnionOutcome {
  double estimate = 0.0;        ///< (Y/t)·Σ sz
  int64_t trials = 0;           ///< t
  int64_t completed_trials = 0; ///< < t only when starved
  int64_t hits = 0;             ///< Y
  bool starved = false;         ///< some S_i ran out (Line 8 of Alg. 1)
  int64_t membership_checks = 0;
};

/// Trial count t = trial_scale · ceil(12·(1+ε_sz)²·m̄/ε²·ln(4/δ)), clamped,
/// with m̄ = ceil(Σ sz / max sz) (Alg. 1 lines 2-3).
int64_t AppUnionTrialCount(const AppUnionParams& params, double sum_sz,
                           double max_sz);

/// Sample-list length the analysis requires:
/// thresh = 24·(1+ε_sz)²/ε²·ln(4k/δ) (Theorem 1).
double AppUnionThresh(const AppUnionParams& params, int64_t k);

/// Algorithm 1. `inputs` are non-owning pointers; per-input read cursors are
/// local to this call (lists are not mutated, see DESIGN.md §4).
template <typename Input>
AppUnionOutcome AppUnion(const std::vector<const Input*>& inputs,
                         const AppUnionParams& params, Rng& rng) {
  AppUnionOutcome out;
  const int k = static_cast<int>(inputs.size());
  if (k == 0) return out;

  std::vector<double> sizes(k);
  double sum_sz = 0.0, max_sz = 0.0;
  for (int i = 0; i < k; ++i) {
    sizes[i] = inputs[i]->size_estimate();
    sum_sz += sizes[i];
    max_sz = std::max(max_sz, sizes[i]);
  }
  if (!(sum_sz > 0.0)) return out;  // all inputs empty: the union is empty

  const int64_t t = AppUnionTrialCount(params, sum_sz, max_sz);
  out.trials = t;

  std::vector<int64_t> cursor(k, 0);
  for (int64_t trial = 0; trial < t; ++trial) {
    int i = rng.DiscreteIndex(sizes);
    if (i < 0) break;
    if (cursor[i] >= inputs[i]->num_samples()) {  // Line 8: starvation
      out.starved = true;
      if (params.starvation == StarvationPolicy::kRecycle &&
          inputs[i]->num_samples() > 0) {
        cursor[i] = 0;  // wrap: re-read the list from the front
      } else {
        break;
      }
    }
    const auto& sample = inputs[i]->Sample(cursor[i]++);
    bool covered_earlier = false;
    for (int j = 0; j < i; ++j) {
      ++out.membership_checks;
      if (inputs[j]->Contains(sample)) {
        covered_earlier = true;
        break;
      }
    }
    if (!covered_earlier) ++out.hits;
    ++out.completed_trials;
  }

  out.estimate = (static_cast<double>(out.hits) / static_cast<double>(t)) *
                 sum_sz;
  return out;
}

/// Membership-profile customization point for AppUnionBatched: where a
/// sample's profile words live. The default template handles
/// StoredSample-likes (a `.reach` Bitset member); span-backed sample types
/// (e.g. SampleRef in automata/unrolled.hpp) declare non-template overloads
/// next to their definition, which win at instantiation time.
template <typename S>
inline const uint64_t* ProfileWordsData(const S& s) {
  return s.reach.words().data();
}
template <typename S>
inline size_t ProfileWordsCount(const S& s) {
  return s.reach.words().size();
}

/// Algorithm 1 with batched membership (the CSR-hot-path variant of
/// AppUnion). Identical estimator and identical RNG stream — given the same
/// inputs, params, and rng state it returns the same estimate as AppUnion and
/// leaves the generator in the same state — but it runs as draw-then-scan:
///
///   * Pass 1 makes the t index draws, the only randomness a trial uses, and
///     counts c_i, the completed trials drawn from input i. It stops exactly
///     where the trial-by-trial loop breaks on starvation.
///   * Pass 2 reads each input's profile slab once. A trial drawn from input
///     i reads sample (its draw index mod |S_i|) under kRecycle, and the
///     break policies never read past |S_i|, so input i contributes
///     ⌊c_i/|S_i|⌋·U_i plus the uncovered samples among its first
///     c_i mod |S_i|, where U_i counts the samples of S_i covered by no
///     earlier input. Each covered-earlier check is an inline word AND
///     against prefix mask i (see MembershipBatch).
///
/// Input extends the AppUnion concept with:
///   int    owner()    const;  // dense id of the set's owning state
///   size_t universe() const;  // owner-id universe size (m for NFA states)
/// and Sample(idx) must return a value whose membership profile over that
/// universe (true at bit q iff the sample lies in the set owned by q) is
/// reachable via ProfileWordsData/ProfileWordsCount — a StoredSample's
/// `.reach` Bitset, or a SampleRef's raw slab span.
///
/// `scratch` is caller-owned so repeated calls (one per (q, ℓ, b) in
/// Algorithm 3) reuse the prefix-mask, draw-table and count storage.
/// `membership_checks` counts answered probes (i per completed trial from
/// input i): an upper bound on AppUnion's probe-until-first-hit count for
/// the same trials.
template <typename Input>
AppUnionOutcome AppUnionBatched(const std::vector<const Input*>& inputs,
                                const AppUnionParams& params,
                                AppUnionScratch& scratch, Rng& rng) {
  AppUnionOutcome out;
  const int k = static_cast<int>(inputs.size());
  if (k == 0) return out;

  std::vector<double> sizes(k);
  std::vector<int> owners(k);
  double sum_sz = 0.0, max_sz = 0.0;
  for (int i = 0; i < k; ++i) {
    sizes[i] = inputs[i]->size_estimate();
    owners[i] = inputs[i]->owner();
    sum_sz += sizes[i];
    max_sz = std::max(max_sz, sizes[i]);
  }
  if (!(sum_sz > 0.0)) return out;  // all inputs empty: the union is empty
  scratch.batch.Rebuild(inputs[0]->universe(), owners);
  // The k size estimates are fixed for all t trials: draw through a guide
  // table (O(1) expected, the same index as DiscreteIndex).
  scratch.table.Rebuild(sizes);

  const int64_t t = AppUnionTrialCount(params, sum_sz, max_sz);
  out.trials = t;

  // Pass 1. The trial-by-trial loop stops on a draw of input i once it has
  // read |S_i| samples (Line 8), except that kRecycle wraps the cursor of a
  // non-empty list; that draw is consumed but its trial does not complete.
  const bool recycle = params.starvation == StarvationPolicy::kRecycle;
  std::vector<int64_t>& draws = scratch.draws;
  std::vector<int64_t>& limit = scratch.limit;
  draws.assign(static_cast<size_t>(k), 0);
  limit.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int64_t ns = inputs[i]->num_samples();
    limit[i] = recycle && ns > 0 ? t : ns;
  }
  const DiscreteTable& table = scratch.table;
  int64_t completed = 0;
  for (; completed < t; ++completed) {
    const int i = table.Draw(rng);
    if (i < 0) break;
    if (draws[i] >= limit[i]) {
      out.starved = true;
      break;
    }
    ++draws[i];
  }
  out.completed_trials = completed;

  // Pass 2: hits and probes from the counts, one slab read per input.
  for (int i = 0; i < k; ++i) {
    const int64_t c = draws[i];
    if (c == 0) continue;
    const int64_t ns = inputs[i]->num_samples();
    if (c > ns) out.starved = true;  // kRecycle wrapped this cursor
    out.membership_checks += static_cast<int64_t>(i) * c;
    if (i == 0) {  // nothing is earlier: every trial hits
      out.hits += c;
      continue;
    }
    const int64_t laps = c / ns;
    const int64_t rest = c % ns;
    const uint64_t* mask =
        scratch.batch.Prefix(static_cast<size_t>(i)).words().data();
    int64_t uncovered = 0;       // among the samples scanned so far
    int64_t uncovered_rest = 0;  // among the first `rest`, once laps > 0
    for (int64_t j = 0; j < std::min(c, ns); ++j) {
      if (j == rest) uncovered_rest = uncovered;
      const auto& sample = inputs[i]->Sample(j);
      const uint64_t* profile = ProfileWordsData(sample);
      const size_t nwords = ProfileWordsCount(sample);
      assert(nwords == scratch.batch.Prefix(static_cast<size_t>(i))
                           .words().size());
      uint64_t covered = 0;
      for (size_t w = 0; w < nwords; ++w) covered |= profile[w] & mask[w];
      uncovered += covered == 0;
    }
    out.hits += laps > 0 ? laps * uncovered + uncovered_rest : uncovered;
  }

  out.estimate = (static_cast<double>(out.hits) / static_cast<double>(t)) *
                 sum_sz;
  return out;
}

/// Classic Karp-Luby variant: draws fresh samples via Input::Draw(rng) with
/// exact sizes — the [12] algorithm AppUnion modifies. Input requirements:
///   double size_estimate() const;
///   SampleT Draw(Rng&) const;
///   bool Contains(const SampleT&) const;
template <typename Input>
AppUnionOutcome AppUnionResample(const std::vector<const Input*>& inputs,
                                 const AppUnionParams& params, Rng& rng) {
  AppUnionOutcome out;
  const int k = static_cast<int>(inputs.size());
  if (k == 0) return out;

  std::vector<double> sizes(k);
  double sum_sz = 0.0, max_sz = 0.0;
  for (int i = 0; i < k; ++i) {
    sizes[i] = inputs[i]->size_estimate();
    sum_sz += sizes[i];
    max_sz = std::max(max_sz, sizes[i]);
  }
  if (!(sum_sz > 0.0)) return out;

  const int64_t t = AppUnionTrialCount(params, sum_sz, max_sz);
  out.trials = t;
  for (int64_t trial = 0; trial < t; ++trial) {
    int i = rng.DiscreteIndex(sizes);
    if (i < 0) break;
    auto sample = inputs[i]->Draw(rng);
    bool covered_earlier = false;
    for (int j = 0; j < i; ++j) {
      ++out.membership_checks;
      if (inputs[j]->Contains(sample)) {
        covered_earlier = true;
        break;
      }
    }
    if (!covered_earlier) ++out.hits;
    ++out.completed_trials;
  }
  out.estimate =
      (static_cast<double>(out.hits) / static_cast<double>(t)) * sum_sz;
  return out;
}

}  // namespace nfacount

#endif  // NFACOUNT_COUNTING_UNION_MC_HPP_
