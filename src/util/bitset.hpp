// Dynamic fixed-capacity bitset used for NFA state sets: reachability
// frontiers, predecessor expansions, and the amortized membership oracle of
// the FPRAS (one bit probe per membership query, see DESIGN.md §4).

#ifndef NFACOUNT_UTIL_BITSET_HPP_
#define NFACOUNT_UTIL_BITSET_HPP_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nfacount {

/// Fixed-size (chosen at construction) bitset over indices [0, size).
/// All binary operations require equal sizes.
class Bitset {
 public:
  Bitset() : size_(0) {}
  explicit Bitset(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  /// Builds a bitset of `size` bits with the given indices set.
  static Bitset FromIndices(size_t size, const std::vector<int>& indices);

  /// Builds a bitset of `size` bits from a raw word array of (size+63)/64
  /// words (little-endian bit order, tail bits beyond `size` must be clear).
  static Bitset FromWords(size_t size, const uint64_t* words);

  size_t size() const { return size_; }

  bool Test(size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    assert(i < size_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }
  void Reset(size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Sets all bits in [0, size).
  void SetAll();

  bool Any() const;
  bool None() const { return !Any(); }
  size_t Count() const;

  /// True if this and `other` share at least one set bit.
  bool Intersects(const Bitset& other) const;

  /// True if every set bit of this is also set in `other`.
  bool IsSubsetOf(const Bitset& other) const;

  Bitset& operator|=(const Bitset& other);
  Bitset& operator&=(const Bitset& other);

  /// this &= ~other (set difference), one pass over the word arrays.
  Bitset& AndNot(const Bitset& other);

  /// Fused frontier-propagation step: this |= (other & mask), one pass over
  /// the word arrays. This is the inner loop of CSR mask-based predecessor/
  /// successor expansion (unrolled.hpp): OR a transition-row mask into the
  /// frontier while clipping to the previous level's reachable set, without
  /// materializing the intermediate.
  Bitset& OrMasked(const Bitset& other, const Bitset& mask);

  /// Copies `other` into this. Unlike operator= it requires equal sizes and
  /// never reallocates — safe for scratch buffers on the hot path.
  void CopyFrom(const Bitset& other);

  /// Overwrites the contents from a raw word array of exactly words().size()
  /// words (tail bits must be clear). Never reallocates — the bridge from
  /// FrontierPlane rows back into Bitset-taking APIs (cache keys, AppUnion).
  void AssignWords(const uint64_t* words, size_t nwords);

  bool operator==(const Bitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const Bitset& other) const { return !(*this == other); }

  /// Index of the lowest set bit, or -1 if none.
  int FirstSet() const;

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits) {
        int b = __builtin_ctzll(bits);
        fn(static_cast<int>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }

  /// Set-bit indices in ascending order.
  std::vector<int> ToIndices() const;

  /// e.g. "{0,3,7}" — for diagnostics and test failure messages.
  std::string ToString() const;

  /// 64-bit mixing hash of the contents (size-sensitive).
  uint64_t Hash() const;

  /// Raw words, little-endian bit order (for cache keys).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Mutable raw word pointer for span-kernel interop (plane sweeps). The
  /// caller must keep tail bits beyond size() clear.
  uint64_t* mutable_words() { return words_.data(); }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

/// Hash functor for unordered containers keyed by Bitset.
struct BitsetHash {
  size_t operator()(const Bitset& b) const { return static_cast<size_t>(b.Hash()); }
};

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_BITSET_HPP_
