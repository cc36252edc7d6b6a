// Deterministic pseudo-random number generation for all randomized algorithms
// in the library. Every randomized entry point takes an explicit Rng so runs
// are reproducible from a single seed; Split() derives statistically
// independent child streams for subcomputations.

#ifndef NFACOUNT_UTIL_RNG_HPP_
#define NFACOUNT_UTIL_RNG_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nfacount {

/// SplitMix64: seeding / stream-derivation generator (Steele et al.).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Stateless 64→64 bit finalizer (the SplitMix64 output stage). Used to
/// derive counter-based substream keys: statistically independent outputs for
/// distinct inputs, bit-identical on every platform.
uint64_t Mix64(uint64_t z);

/// Folds `v` into the running substream key `h` (Mix64 over an injective-ish
/// combination). Chain calls to key a stream by several coordinates.
uint64_t HashCombine(uint64_t h, uint64_t v);

/// xoshiro256** 1.0 (Blackman & Vigna) wrapped with the draw primitives the
/// counting/sampling algorithms need. Not cryptographic.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 (any seed, including 0, is fine).
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  /// Counter-based substream derivation: a generator keyed by (seed, a, b)
  /// only. Unlike Split() — which couples the child to the parent's current
  /// position — the substream for given coordinates is the same no matter
  /// when, where, or on which thread it is created. The FPRAS keys one
  /// stream per (state q, level ℓ) cell, which is what makes the parallel
  /// level sweep bit-identical for every thread count (including 1).
  static Rng ForSubstream(uint64_t seed, uint64_t a, uint64_t b);

  /// Raw 64 uniform bits. Inline: AppUnion's trial loop draws one per trial.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// `bound` must be > 0.
  uint64_t UniformU64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  double UniformDouble();

  /// Bernoulli draw; p outside [0,1] is clamped.
  bool Bernoulli(double p);

  /// Index i drawn with probability weights[i] / sum(weights).
  /// Weights must be non-negative with a positive finite sum; returns -1 if
  /// the sum is not positive. O(k) per draw (k is small in all call sites).
  int DiscreteIndex(const std::vector<double>& weights);

  /// Derives an independent child generator (distinct stream).
  Rng Split();

  /// std::uniform_random_bit_generator interface (for std::shuffle etc.).
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return NextU64(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Flat prefix-sum table over a fixed weight vector, for loops that draw many
/// indices from the same distribution (AppUnion's trial loop draws t ≫ k
/// times from k fixed size estimates). Draw() is O(1) expected against
/// DiscreteIndex's O(k) scan: a guide table (indexed search) of G = 2^g
/// buckets over the top g of the 53 uniform bits maps each bucket to the
/// first index its smallest value can select, and a forward scan of at most
/// 1 + k/G expected steps finishes; G >= min(16k, 2^16), so the scan
/// usually stops at its first test and rarely mispredicts. It consumes
/// exactly one NextU64 (the bits of one UniformDouble) and selects the
/// bit-identical index for the same generator state: the prefix sums
/// accumulate in DiscreteIndex's order, the scan tests DiscreteIndex's
/// `u < prefix` condition, and the floating-point-slack fallback picks the
/// same last positive weight. Rebuild() reuses the table's storage across
/// calls.
class DiscreteTable {
 public:
  DiscreteTable() = default;

  /// Recomputes the prefix sums and the guide table for `weights`
  /// (non-negative).
  void Rebuild(const std::vector<double>& weights);

  /// True when the weights had a positive sum (+inf included: Draw then
  /// always takes the last-positive-weight fallback, as DiscreteIndex does).
  bool valid() const { return total_ > 0.0; }

  /// Sum of the weights (0 before Rebuild).
  double total() const { return total_; }

  /// Index i drawn with probability weights[i] / total, or -1 when !valid().
  /// Identical selection to Rng::DiscreteIndex on the same weights and rng.
  /// Inline: it is the whole body of AppUnion's first pass.
  int Draw(Rng& rng) const {
    if (!(total_ > 0.0)) return -1;
    // Bit for bit UniformDouble() * total_, keeping r to pick the bucket.
    const uint64_t r = rng.NextU64() >> 11;
    const double u = static_cast<double>(r) * 0x1.0p-53 * total_;
    // First i with u < prefix_[i] — the same condition DiscreteIndex's
    // linear scan tests, on the same partial sums; no index below the guide
    // entry can satisfy it.
    const size_t k = prefix_.size();
    size_t i = guide_[r >> guide_shift_];
    while (i < k && !(u < prefix_[i])) ++i;
    if (i < k) return static_cast<int>(i);
    // Floating-point slack (or an infinite total): DiscreteIndex's exact
    // fallback, the last positive weight. A tiny weight can be absorbed by
    // the running sum and leave no strict prefix increase, so it is found on
    // the weights, not the prefix sums.
    return last_positive_;
  }

 private:
  std::vector<double> prefix_;
  /// guide_[b]: the first i with prefix_[i] above the smallest u of bucket b.
  std::vector<uint32_t> guide_;
  int guide_shift_ = 53;     ///< bucket of r (53 uniform bits) = r >> shift
  int last_positive_ = -1;   ///< DiscreteIndex's floating-point-slack answer
  double total_ = 0.0;
};

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_RNG_HPP_
