#include "util/rng.hpp"

#include <cassert>
#include <cstddef>

namespace nfacount {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

Rng Rng::ForSubstream(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t key = Mix64(seed + 0x9e3779b97f4a7c15ULL);
  key = HashCombine(key, a);
  key = HashCombine(key, b);
  return Rng(key);
}

uint64_t Rng::UniformU64(uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

int Rng::DiscreteIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (!(total > 0.0)) return -1;
  double u = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int>(i);
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int>(i);
  }
  return -1;
}

Rng Rng::Split() { return Rng(NextU64() ^ 0x9e3779b97f4a7c15ULL); }

void DiscreteTable::Rebuild(const std::vector<double>& weights) {
  const size_t k = weights.size();
  prefix_.resize(k);
  double acc = 0.0;
  last_positive_ = -1;
  for (size_t i = 0; i < k; ++i) {
    assert(weights[i] >= 0.0);
    acc += weights[i];
    prefix_[i] = acc;
    if (weights[i] > 0.0) last_positive_ = static_cast<int>(i);
  }
  total_ = acc;

  // G = 2^g buckets: the smallest power of two >= 16k, capped at 2^16. The
  // k prefix sums split among G equally likely buckets, so a draw's expected
  // scan is <= 1 + k/G steps: <= 1 + 1/16 below the cap, which keeps the
  // scan's exit branch predictable.
  int g = 1;
  while (g < 16 && (size_t{1} << g) < 16 * k) ++g;
  guide_shift_ = 53 - g;
  guide_.resize(size_t{1} << g);
  // Bucket b holds r in [b << shift, (b + 1) << shift). u_min is the u its
  // smallest r yields, and rounding the product is monotone, so every draw in
  // the bucket has u >= u_min and cannot select an index whose prefix sum is
  // <= u_min. u_min grows with b, so one forward pointer fills the table.
  size_t i = 0;
  for (size_t b = 0; b < guide_.size(); ++b) {
    const double u_min =
        static_cast<double>(static_cast<uint64_t>(b) << guide_shift_) *
        0x1.0p-53 * total_;
    while (i < k && !(u_min < prefix_[i])) ++i;
    guide_[b] = static_cast<uint32_t>(i);
  }
}

}  // namespace nfacount
