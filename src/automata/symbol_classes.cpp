#include "automata/symbol_classes.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/rng.hpp"

namespace nfacount {

namespace {

/// True when symbols `a` and `b` have identical successor rows at every
/// state — the exact check behind the hash buckets.
bool RowsEqual(const Nfa& nfa, Symbol a, Symbol b) {
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    if (nfa.Successors(q, a) != nfa.Successors(q, b)) return false;
  }
  return true;
}

}  // namespace

SymbolClassIndex SymbolClassIndex::Compute(const Nfa& nfa) {
  const int k = nfa.alphabet_size();
  const int m = nfa.num_states();

  // Content hash of each symbol's full successor-row vector. Rows are stored
  // sorted, so equal relations hash equally on any platform.
  std::vector<uint64_t> hash(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    uint64_t h = 0x53594d43ULL;  // arbitrary domain tag ("SYMC")
    for (StateId q = 0; q < m; ++q) {
      const std::vector<StateId>& row =
          nfa.Successors(q, static_cast<Symbol>(a));
      h = HashCombine(h, row.size() + 1);
      for (StateId r : row) {
        h = HashCombine(h, static_cast<uint64_t>(r) + 1);
      }
    }
    hash[static_cast<size_t>(a)] = h;
  }

  // Bucket by hash, then verify each bucket member-by-member against the
  // groups already formed in its bucket: a collision splits a bucket into
  // several classes but can never merge distinct rows.
  std::vector<int> order(static_cast<size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (hash[static_cast<size_t>(a)] != hash[static_cast<size_t>(b)]) {
      return hash[static_cast<size_t>(a)] < hash[static_cast<size_t>(b)];
    }
    return a < b;
  });

  std::vector<std::vector<Symbol>> groups;
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j < order.size() &&
           hash[static_cast<size_t>(order[j])] ==
               hash[static_cast<size_t>(order[i])]) {
      ++j;
    }
    const size_t run_first_group = groups.size();
    for (size_t t = i; t < j; ++t) {
      const Symbol a = static_cast<Symbol>(order[t]);
      bool placed = false;
      for (size_t g = run_first_group; g < groups.size(); ++g) {
        if (RowsEqual(nfa, groups[g].front(), a)) {
          groups[g].push_back(a);  // ascending: order[] ascends within a hash
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({a});
    }
    i = j;
  }

  // Canonical class order: by smallest member, so representatives ascend and
  // the trivial partition is the identity map.
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<Symbol>& a, const std::vector<Symbol>& b) {
              return a.front() < b.front();
            });

  SymbolClassIndex out;
  out.class_of_.assign(static_cast<size_t>(k), -1);
  out.representative_.reserve(groups.size());
  out.members_.reserve(static_cast<size_t>(k));
  out.member_offsets_.reserve(groups.size() + 1);
  out.member_offsets_.push_back(0);
  for (size_t c = 0; c < groups.size(); ++c) {
    out.representative_.push_back(groups[c].front());
    for (Symbol a : groups[c]) {
      out.class_of_[a] = static_cast<int32_t>(c);
      out.members_.push_back(a);
    }
    out.member_offsets_.push_back(out.members_.size());
  }
  assert(out.members_.size() == static_cast<size_t>(k));
  return out;
}

}  // namespace nfacount
