#include "util/bitset.hpp"

#include <algorithm>

namespace nfacount {

Bitset Bitset::FromIndices(size_t size, const std::vector<int>& indices) {
  Bitset b(size);
  for (int i : indices) b.Set(static_cast<size_t>(i));
  return b;
}

Bitset Bitset::FromWords(size_t size, const uint64_t* words) {
  Bitset b(size);
  std::copy(words, words + b.words_.size(), b.words_.begin());
  return b;
}

void Bitset::SetAll() {
  std::fill(words_.begin(), words_.end(), ~0ULL);
  size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

bool Bitset::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

size_t Bitset::Count() const {
  size_t total = 0;
  for (uint64_t w : words_) {
    total += static_cast<size_t>(__builtin_popcountll(w));
  }
  return total;
}

bool Bitset::Intersects(const Bitset& other) const {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

bool Bitset::IsSubsetOf(const Bitset& other) const {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  return true;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::AndNot(const Bitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

Bitset& Bitset::OrMasked(const Bitset& other, const Bitset& mask) {
  assert(size_ == other.size_ && size_ == mask.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i] & mask.words_[i];
  }
  return *this;
}

void Bitset::CopyFrom(const Bitset& other) {
  assert(size_ == other.size_);
  std::copy(other.words_.begin(), other.words_.end(), words_.begin());
}

void Bitset::AssignWords(const uint64_t* words, size_t nwords) {
  assert(nwords == words_.size());
  std::copy(words, words + nwords, words_.begin());
}

int Bitset::FirstSet() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int>(w * 64 + __builtin_ctzll(words_[w]));
    }
  }
  return -1;
}

std::vector<int> Bitset::ToIndices() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEachSet([&](int i) { out.push_back(i); });
  return out;
}

std::string Bitset::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEachSet([&](int i) {
    if (!first) out += ",";
    out += std::to_string(i);
    first = false;
  });
  out += "}";
  return out;
}

uint64_t Bitset::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (size_ * 0xbf58476d1ce4e5b9ULL);
  for (uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace nfacount
