#include "fpras/plane.hpp"

#include <algorithm>

namespace nfacount {

void SampleArena::PrepareRun(int max_batch, int max_word_len, size_t bits,
                             int num_classes) {
  const int b = std::max(max_batch, 1);
  BeginBatch(b, max_word_len, bits, num_classes);
  accepted.reserve(static_cast<size_t>(b));
  if (frontier_scratch.size() != bits) frontier_scratch = Bitset(bits);
}

void SampleArena::BeginBatch(int batch, int word_len, size_t bits,
                             int num_classes) {
  // PrepareRun sized every slab for the widest batch through this same
  // call; reshaping within that capacity never allocates, and a wider batch
  // grows the slabs instead of indexing past them.
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
  Ensure(group_step, static_cast<size_t>(batch));
  Ensure(group_link, static_cast<size_t>(batch));
  Ensure(next_group_link, static_cast<size_t>(batch));
  Ensure(child_of, static_cast<size_t>(batch) * num_classes);
  Ensure(group_sizes, static_cast<size_t>(batch));
  for (auto& sizes : group_sizes) {
    if (static_cast<size_t>(num_classes) > sizes.capacity()) {
      ++vector_alloc_events_;
      sizes.reserve(static_cast<size_t>(num_classes));
    }
  }
  group_rows_stride_ = static_cast<size_t>(num_classes) * ((bits + 63) / 64);
  Ensure(group_rows, static_cast<size_t>(batch) * group_rows_stride_);
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
      (state_of.capacity() + outcome_of.capacity()) * sizeof(uint8_t));
  total += static_cast<int64_t>(group_step.capacity() * sizeof(GroupStep));
  total += static_cast<int64_t>(group_rows.capacity() * sizeof(uint64_t));
  total += static_cast<int64_t>(
      (group_link.capacity() + next_group_link.capacity()) *
      sizeof(std::atomic<const DescentEntry*>*));
  for (const auto& sizes : group_sizes) {
    total += static_cast<int64_t>(sizes.capacity() * sizeof(double));
  }
  return total;
}

int64_t SampleArena::alloc_events() const {
  return vector_alloc_events_ + cur.alloc_events() + next.alloc_events();
}

void ReachTrie::Restart(const UnrolledNfa& unrolled) {
  const int m = unrolled.nfa().num_states();
  row_words_ = (static_cast<size_t>(m) + 63) / 64;
  num_classes_ = static_cast<size_t>(unrolled.symbol_classes().num_classes());
  const size_t node_bytes =
      row_words_ * sizeof(uint64_t) + num_classes_ * sizeof(int32_t);
  max_nodes_ = std::max<size_t>(budget_bytes_ / node_bytes, 1);
  rows_.assign(row_words_, 0);
  children_.assign(num_classes_, 0);
  const size_t init = static_cast<size_t>(unrolled.nfa().initial());
  rows_[init >> 6] |= uint64_t{1} << (init & 63);
}

const uint64_t* ReachTrie::Profile(const UnrolledNfa& unrolled,
                                   const Symbol* word, int len,
                                   int64_t* steps) {
  if (rows_.empty()) Restart(unrolled);
  const SymbolClassIndex& classes = unrolled.symbol_classes();
  size_t node = 0;
  int j = 0;
  for (; j < len; ++j) {
    const int32_t child =
        children_[node * num_classes_ +
                  static_cast<size_t>(classes.ClassOf(word[j]))];
    if (child == 0) break;
    node = static_cast<size_t>(child);
  }
  if (j == len) return Row(node);

  size_t count = nodes();
  if (count > 1 && count + static_cast<size_t>(len - j) > max_nodes_) {
    Restart(unrolled);
    node = 0;
    j = 0;
    count = 1;
  }
  // Grow by doubling, but never past the budget unless this word needs it.
  const size_t need = count + static_cast<size_t>(len - j);
  if (need * row_words_ > rows_.capacity()) {
    const size_t grown = std::max(
        need, std::min(2 * rows_.capacity() / row_words_, max_nodes_));
    rows_.reserve(grown * row_words_);
    children_.reserve(grown * num_classes_);
  }
  *steps += len - j;
  for (; j < len; ++j) {
    const size_t child = count++;
    rows_.resize(count * row_words_);
    children_.resize(count * num_classes_, 0);
    unrolled.SuccSetWordsInto(Row(node), word[j], Row(child));
    children_[node * num_classes_ +
              static_cast<size_t>(classes.ClassOf(word[j]))] =
        static_cast<int32_t>(child);
    node = child;
  }
  return Row(node);
}

int64_t ReachTrie::bytes_reserved() const {
  return static_cast<int64_t>(rows_.capacity() * sizeof(uint64_t) +
                              children_.capacity() * sizeof(int32_t));
}

}  // namespace nfacount
