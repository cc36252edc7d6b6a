// Automaton workload families for tests and benchmarks (DESIGN.md §5). Each
// family stresses a different regime of the FPRAS: union overlap, ambiguity,
// sparsity, density, predecessor structure.

#ifndef NFACOUNT_AUTOMATA_GENERATORS_HPP_
#define NFACOUNT_AUTOMATA_GENERATORS_HPP_

#include <string>
#include <vector>

#include "automata/nfa.hpp"
#include "util/rng.hpp"

namespace nfacount {

/// Random NFA: m states, each (state, symbol) pair gets each possible target
/// independently with probability `density`; every state has at least one
/// outgoing edge per symbol forced (keeps levels alive); one random accepting
/// state plus each other state accepting with probability `accept_prob`.
Nfa RandomNfa(int m, double density, double accept_prob, Rng& rng);

/// Sparse random NFA over a k-symbol alphabet: m states, each (state, symbol)
/// pair gets each possible target independently with probability d/m (d
/// expected targets), no forced liveness, and exactly one accepting state,
/// chosen uniformly. Unlike RandomNfa at E3 densities — which accepts every
/// word of length >= 2 once m >= 24 — its languages are proper subsets of
/// Σⁿ whose unions do not all coincide. Requires m >= 1, k >= 1, d >= 0.
Nfa SparseRandomNfa(int m, int k, double d, Rng& rng);

/// DFA accepting exactly the words with `pattern` as a prefix ("combination
/// lock"): |L(A_n)| = |Σ|^(n-|pattern|) for n >= |pattern|. Exact anchor.
Nfa CombinationLock(const Word& pattern, int alphabet_size = 2);

/// NFA accepting words containing `pattern` as a (contiguous) substring, in
/// the textbook nondeterministic form (guess the occurrence start): highly
/// ambiguous, heavy predecessor overlap.
Nfa SubstringNfa(const Word& pattern, int alphabet_size = 2);

/// DFA accepting words whose number of occurrences of symbol 1 is ≡ r (mod k).
Nfa ParityNfa(int k, int r = 0, int alphabet_size = 2);

/// Union (shared-initial-state NFA) of `count` one-position locks of length
/// `len`: lock j accepts words with symbol 1 at position j % len (free
/// elsewhere). The per-lock languages overlap heavily — the worst case for
/// naive sum-of-estimates and the Karp-Luby showcase.
Nfa UnionOfLocks(int count, int len, int alphabet_size = 2);

/// Chain of m states where every state has both-symbol self loops and
/// forward edges: every accepted word has exponentially many runs. Detects
/// accidental run-counting (instead of word-counting) bugs.
Nfa AmbiguousChain(int m, int alphabet_size = 2);

/// DFA accepting base-|Σ| numerals (MSB first) divisible by d.
Nfa DivisibilityNfa(int d, int alphabet_size = 2);

/// NFA whose reversal is deterministic: built by reversing a random DFA.
/// Exercises degenerate predecessor structure (|Pred(q,b)| <= 1).
Nfa ReverseDeterministic(int m, Rng& rng, int alphabet_size = 2);

/// Single accepting sink with all transitions: accepts every word,
/// |L(A_n)| = |Σ|^n exactly.
Nfa DenseCompleteNfa(int m, int alphabet_size = 2);

/// Accepts exactly one word (the given needle): rejection-heavy sampling.
Nfa SparseNeedle(const Word& needle, int alphabet_size = 2);

/// Words whose k-th symbol from the end is 1 — the canonical determinization
/// blow-up family (the minimal DFA has 2^k states; the NFA has k+1).
Nfa KthFromEndNfa(int k, int alphabet_size = 2);

/// Corpus-style token matcher on a tokenizer-scale alphabet: a substring
/// automaton over token *categories*. Symbol a belongs to category
/// min(floor(log2(a+1)), num_categories-1) — doubling, Zipf-like buckets
/// (category 0 = {0}, 1 = {1,2}, 2 = {3..6}, ..., last = the long tail) —
/// and every transition depends only on the category: state 0 loops on all
/// symbols and advances on category i%num_categories at pattern position i,
/// the final state is absorbing-accepting. The automaton therefore has a
/// handful of distinct transition rows no matter how large |Σ| grows — the
/// regime symbol-class compression targets (C << |Σ|); categories absent
/// from the pattern collapse into one class. Requires pattern_len >= 1,
/// alphabet_size >= 2, 1 <= num_categories <= log2(alphabet_size)+1.
Nfa CorpusTokenNfa(int pattern_len, int alphabet_size, int num_categories);

/// Named accessor used by parameterized tests/benches: families keyed by
/// name with a size knob; returns a family instance suited to length n.
struct FamilyInstance {
  std::string name;
  Nfa nfa;
};
std::vector<FamilyInstance> StandardFamilies(int size_knob, int n, uint64_t seed);

}  // namespace nfacount

#endif  // NFACOUNT_AUTOMATA_GENERATORS_HPP_
