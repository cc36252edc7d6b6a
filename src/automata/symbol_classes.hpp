// Symbol equivalence classes — alphabet compression for the per-symbol hot
// loops (à la RE2 byte classes).
//
// Two symbols a, b are equivalent when they have identical transition
// relations: Succ(q, a) == Succ(q, b) for every state q (equivalently,
// identical reverse rows). Interchangeable symbols do interchangeable work
// everywhere the engine iterates Σ — the predecessor set Pred(P, a) of any
// frontier P, and hence the level-ℓ slice size behind it, is the same for
// every member of a class. Collapsing Σ to its C distinct rows makes those
// loops O(C) instead of O(|Σ|): regex- and corpus-derived NFAs (character
// classes, wildcards, case folding) have a handful of distinct rows even at
// tokenizer-vocab alphabet sizes (2^10..2^16), where C << |Σ|.
//
// The partition is computed once at UnrolledNfa construction: hash each
// symbol's full successor-row content across all states, bucket by hash, and
// verify every bucket by exact row comparison (a hash collision splits the
// bucket, never merges wrongly). Classes are ordered by their smallest
// member, so representatives are strictly increasing and the trivial
// partition (all rows distinct) has class id == symbol id.

#ifndef NFACOUNT_AUTOMATA_SYMBOL_CLASSES_HPP_
#define NFACOUNT_AUTOMATA_SYMBOL_CLASSES_HPP_

#include <cstdint>
#include <vector>

#include "automata/nfa.hpp"

namespace nfacount {

/// The symbol partition of one automaton: class_of maps each symbol to its
/// class id, and per class the index stores the representative (smallest
/// member), the weight (member count), and a CSR of the members themselves.
class SymbolClassIndex {
 public:
  /// Computes the partition of `nfa`'s alphabet by identical transition
  /// rows (hash + exact verification).
  static SymbolClassIndex Compute(const Nfa& nfa);

  /// Number of classes C (1 <= C <= alphabet size).
  int num_classes() const { return static_cast<int>(representative_.size()); }
  /// The partitioned alphabet's size |Σ|.
  int alphabet_size() const { return static_cast<int>(class_of_.size()); }
  /// True when every class is a singleton (C == |Σ|).
  bool trivial() const { return num_classes() == alphabet_size(); }

  /// Class id of symbol `a`.
  int ClassOf(Symbol a) const { return class_of_[a]; }
  /// Smallest member of class `c` — the symbol the hot loops expand.
  Symbol Representative(int c) const { return representative_[c]; }
  /// Member count of class `c`.
  int Weight(int c) const {
    return static_cast<int>(member_offsets_[c + 1] - member_offsets_[c]);
  }
  /// The `i`-th member (ascending) of class `c`, i in [0, Weight(c)).
  Symbol Member(int c, int i) const {
    return members_[member_offsets_[c] + static_cast<size_t>(i)];
  }

 private:
  std::vector<int32_t> class_of_;        ///< |Σ| entries: symbol → class id
  std::vector<Symbol> representative_;   ///< C entries, strictly increasing
  std::vector<Symbol> members_;          ///< |Σ| symbols grouped by class
  std::vector<size_t> member_offsets_;   ///< C+1 offsets into members_
};

}  // namespace nfacount

#endif  // NFACOUNT_AUTOMATA_SYMBOL_CLASSES_HPP_
