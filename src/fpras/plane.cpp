#include "fpras/plane.hpp"

#include <algorithm>

namespace nfacount {

void SampleArena::EnsureGroupSizes(int rows, int num_classes) {
  if (static_cast<size_t>(rows) > group_sizes.capacity()) {
    ++vector_alloc_events_;
  }
  if (group_sizes.size() < static_cast<size_t>(rows)) {
    group_sizes.resize(static_cast<size_t>(rows));
  }
  for (auto& sizes : group_sizes) {
    if (static_cast<size_t>(num_classes) > sizes.capacity()) {
      ++vector_alloc_events_;
      sizes.reserve(static_cast<size_t>(num_classes));
    }
  }
}

void SampleArena::PrepareRun(int max_batch, int max_word_len, size_t bits,
                             int num_classes) {
  const int b = std::max(max_batch, 1);
  const int len = std::max(max_word_len, 1);
  cur.Reshape(b, bits);
  next.Reshape(b, bits);
  word_stride_ = static_cast<size_t>(len);
  Ensure(symbols, static_cast<size_t>(b) * word_stride_);
  Ensure(phi, static_cast<size_t>(b));
  Ensure(rng, static_cast<size_t>(b));
  Ensure(group_of, static_cast<size_t>(b));
  Ensure(next_group_of, static_cast<size_t>(b));
  Ensure(state_of, static_cast<size_t>(b));
  Ensure(outcome_of, static_cast<size_t>(b));
  Ensure(group_total, static_cast<size_t>(b));
  Ensure(group_ready, static_cast<size_t>(b));
  Ensure(group_entry, static_cast<size_t>(b));
  Ensure(child_of, static_cast<size_t>(b) * num_classes);
  EnsureGroupSizes(b, num_classes);
  accepted.reserve(static_cast<size_t>(b));
  if (frontier_scratch.size() != bits) {
    frontier_scratch = Bitset(bits);
    profile_cur = Bitset(bits);
    profile_next = Bitset(bits);
  }
}

void SampleArena::BeginBatch(int batch, int word_len, size_t bits,
                             int num_classes) {
  // PrepareRun reserved for the widest batch; reshaping within that capacity
  // never allocates.
  cur.Reshape(batch, bits);
  next.Reshape(batch, bits);
  word_stride_ = static_cast<size_t>(std::max(word_len, 1));
  Ensure(symbols, static_cast<size_t>(batch) * word_stride_);
  Ensure(phi, static_cast<size_t>(batch));
  Ensure(rng, static_cast<size_t>(batch));
  Ensure(group_of, static_cast<size_t>(batch));
  Ensure(next_group_of, static_cast<size_t>(batch));
  Ensure(state_of, static_cast<size_t>(batch));
  Ensure(outcome_of, static_cast<size_t>(batch));
  Ensure(group_total, static_cast<size_t>(batch));
  Ensure(group_ready, static_cast<size_t>(batch));
  Ensure(group_entry, static_cast<size_t>(batch));
  Ensure(child_of, static_cast<size_t>(batch) * num_classes);
  EnsureGroupSizes(batch, num_classes);
  accepted.clear();
}

int64_t SampleArena::bytes_reserved() const {
  int64_t total = cur.bytes_reserved() + next.bytes_reserved();
  total += static_cast<int64_t>(symbols.capacity() * sizeof(Symbol));
  total += static_cast<int64_t>(phi.capacity() * sizeof(double));
  total += static_cast<int64_t>(rng.capacity() * sizeof(Rng));
  total += static_cast<int64_t>((group_of.capacity() +
                                 next_group_of.capacity() +
                                 child_of.capacity() + accepted.capacity()) *
                                sizeof(int32_t));
  total += static_cast<int64_t>(
      (state_of.capacity() + outcome_of.capacity() + group_ready.capacity()) *
      sizeof(uint8_t));
  total += static_cast<int64_t>(group_total.capacity() * sizeof(double));
  total += static_cast<int64_t>(group_entry.capacity() *
                                sizeof(const DescentEntry*));
  for (const auto& sizes : group_sizes) {
    total += static_cast<int64_t>(sizes.capacity() * sizeof(double));
  }
  return total;
}

int64_t SampleArena::alloc_events() const {
  return vector_alloc_events_ + cur.alloc_events() + next.alloc_events();
}

}  // namespace nfacount
