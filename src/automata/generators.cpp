#include "automata/generators.hpp"

#include <cassert>

namespace nfacount {

Nfa RandomNfa(int m, double density, double accept_prob, Rng& rng) {
  assert(m >= 1);
  Nfa out(2);
  out.AddStates(m);
  out.SetInitial(0);
  for (StateId q = 0; q < m; ++q) {
    for (int a = 0; a < 2; ++a) {
      bool any = false;
      for (StateId r = 0; r < m; ++r) {
        if (rng.Bernoulli(density)) {
          out.AddTransition(q, static_cast<Symbol>(a), r);
          any = true;
        }
      }
      if (!any) {
        // Force liveness: one random target.
        out.AddTransition(q, static_cast<Symbol>(a),
                          static_cast<StateId>(rng.UniformU64(m)));
      }
    }
  }
  out.AddAccepting(static_cast<StateId>(rng.UniformU64(m)));
  for (StateId q = 0; q < m; ++q) {
    if (rng.Bernoulli(accept_prob)) out.AddAccepting(q);
  }
  return out;
}

Nfa SparseRandomNfa(int m, int k, double d, Rng& rng) {
  assert(m >= 1 && k >= 1 && d >= 0.0);
  Nfa out(k);
  out.AddStates(m);
  out.SetInitial(0);
  const double p = d / m;
  for (StateId q = 0; q < m; ++q) {
    for (int a = 0; a < k; ++a) {
      for (StateId r = 0; r < m; ++r) {
        if (rng.Bernoulli(p)) out.AddTransition(q, static_cast<Symbol>(a), r);
      }
    }
  }
  out.AddAccepting(static_cast<StateId>(rng.UniformU64(m)));
  return out;
}

Nfa CombinationLock(const Word& pattern, int alphabet_size) {
  const int len = static_cast<int>(pattern.size());
  Nfa out(alphabet_size);
  // States 0..len: position in the pattern; len = unlocked (absorbing accept).
  out.AddStates(len + 1);
  out.SetInitial(0);
  out.AddAccepting(len);
  for (int i = 0; i < len; ++i) {
    out.AddTransition(i, pattern[i], i + 1);
  }
  for (int a = 0; a < alphabet_size; ++a) {
    out.AddTransition(len, static_cast<Symbol>(a), len);
  }
  return out;
}

Nfa SubstringNfa(const Word& pattern, int alphabet_size) {
  const int len = static_cast<int>(pattern.size());
  assert(len >= 1);
  Nfa out(alphabet_size);
  // State 0: before the guessed occurrence (loops on everything);
  // states 1..len: inside the occurrence; state len loops (accepting).
  out.AddStates(len + 1);
  out.SetInitial(0);
  out.AddAccepting(len);
  for (int a = 0; a < alphabet_size; ++a) {
    out.AddTransition(0, static_cast<Symbol>(a), 0);
    out.AddTransition(len, static_cast<Symbol>(a), len);
  }
  for (int i = 0; i < len; ++i) {
    out.AddTransition(i, pattern[i], i + 1);
  }
  return out;
}

Nfa ParityNfa(int k, int r, int alphabet_size) {
  assert(k >= 1 && r >= 0 && r < k);
  Nfa out(alphabet_size);
  out.AddStates(k);
  out.SetInitial(0);
  out.AddAccepting(r);
  for (int q = 0; q < k; ++q) {
    // Symbol 1 advances the counter; all other symbols keep it.
    for (int a = 0; a < alphabet_size; ++a) {
      int next = (a == 1) ? (q + 1) % k : q;
      out.AddTransition(q, static_cast<Symbol>(a), next);
    }
  }
  return out;
}

Nfa UnionOfLocks(int count, int len, int alphabet_size) {
  assert(count >= 1 && len >= 1);
  Nfa out(alphabet_size);
  StateId start = out.AddState();
  out.SetInitial(start);
  // Lock j requires symbol 1 at position j % len and is free elsewhere (the
  // suffix after position len is free too): the per-lock languages are the
  // classic heavily-overlapping union L_j = { w : w[j] = 1 } — worst case for
  // summing per-set estimates, the Karp-Luby showcase.
  for (int j = 0; j < count; ++j) {
    int special = j % len;
    StateId prev = start;
    for (int i = 0; i < len; ++i) {
      StateId next = out.AddState();
      if (i == special) {
        out.AddTransition(prev, Symbol{1}, next);
      } else {
        for (int a = 0; a < alphabet_size; ++a) {
          out.AddTransition(prev, static_cast<Symbol>(a), next);
        }
      }
      prev = next;
    }
    out.AddAccepting(prev);
    for (int a = 0; a < alphabet_size; ++a) {
      out.AddTransition(prev, static_cast<Symbol>(a), prev);
    }
  }
  return out;
}

Nfa AmbiguousChain(int m, int alphabet_size) {
  assert(m >= 1);
  Nfa out(alphabet_size);
  out.AddStates(m);
  out.SetInitial(0);
  out.AddAccepting(m - 1);
  for (StateId q = 0; q < m; ++q) {
    for (int a = 0; a < alphabet_size; ++a) {
      out.AddTransition(q, static_cast<Symbol>(a), q);  // self loop
      if (q + 1 < m) out.AddTransition(q, static_cast<Symbol>(a), q + 1);
    }
  }
  return out;
}

Nfa DivisibilityNfa(int d, int alphabet_size) {
  assert(d >= 1);
  Nfa out(alphabet_size);
  out.AddStates(d);
  out.SetInitial(0);
  out.AddAccepting(0);
  for (int q = 0; q < d; ++q) {
    for (int a = 0; a < alphabet_size; ++a) {
      int next = (q * alphabet_size + a) % d;
      out.AddTransition(q, static_cast<Symbol>(a), next);
    }
  }
  return out;
}

Nfa ReverseDeterministic(int m, Rng& rng, int alphabet_size) {
  assert(m >= 1);
  // Build a random complete DFA, then reverse it.
  Nfa dfa(alphabet_size);
  dfa.AddStates(m);
  dfa.SetInitial(0);
  for (StateId q = 0; q < m; ++q) {
    for (int a = 0; a < alphabet_size; ++a) {
      dfa.AddTransition(q, static_cast<Symbol>(a),
                        static_cast<StateId>(rng.UniformU64(m)));
    }
  }
  dfa.AddAccepting(static_cast<StateId>(rng.UniformU64(m)));
  return Reverse(dfa).Trimmed();
}

Nfa DenseCompleteNfa(int m, int alphabet_size) {
  assert(m >= 1);
  Nfa out(alphabet_size);
  out.AddStates(m);
  out.SetInitial(0);
  for (StateId q = 0; q < m; ++q) {
    out.AddAccepting(q);
    for (int a = 0; a < alphabet_size; ++a) {
      out.AddTransition(q, static_cast<Symbol>(a), q);
      out.AddTransition(q, static_cast<Symbol>(a), (q + 1) % m);
    }
  }
  return out;
}

Nfa SparseNeedle(const Word& needle, int alphabet_size) {
  const int len = static_cast<int>(needle.size());
  Nfa out(alphabet_size);
  out.AddStates(len + 1);
  out.SetInitial(0);
  out.AddAccepting(len);
  for (int i = 0; i < len; ++i) {
    out.AddTransition(i, needle[i], i + 1);
  }
  return out;
}

Nfa KthFromEndNfa(int k, int alphabet_size) {
  assert(k >= 1);
  Nfa out(alphabet_size);
  // State 0 guesses the position (loops on everything); reading a 1 starts a
  // countdown of exactly k-1 further symbols.
  out.AddStates(k + 1);
  out.SetInitial(0);
  out.AddAccepting(k);
  for (int a = 0; a < alphabet_size; ++a) {
    out.AddTransition(0, static_cast<Symbol>(a), 0);
    for (int i = 1; i < k; ++i) {
      out.AddTransition(i, static_cast<Symbol>(a), i + 1);
    }
  }
  out.AddTransition(0, Symbol{1}, 1);
  return out;
}

Nfa CorpusTokenNfa(int pattern_len, int alphabet_size, int num_categories) {
  assert(pattern_len >= 1);
  assert(alphabet_size >= 2);
  assert(num_categories >= 1);
  // Zipf-like doubling buckets: category c covers [2^c - 1, 2^(c+1) - 1),
  // with the last category absorbing the long tail. Every bucket below the
  // last must be nonempty, which needs 2^(num_categories-1) - 1 < |Σ|.
  assert((int64_t{1} << (num_categories - 1)) - 1 < alphabet_size);
  auto category_of = [&](int a) {
    int c = 0;
    while (c + 1 < num_categories && a + 1 >= (1 << (c + 1))) ++c;
    return c;
  };

  Nfa out(alphabet_size);
  out.AddStates(pattern_len + 1);
  out.SetInitial(0);
  out.AddAccepting(pattern_len);
  for (int a = 0; a < alphabet_size; ++a) {
    const Symbol s = static_cast<Symbol>(a);
    out.AddTransition(0, s, 0);                        // guess the start
    out.AddTransition(pattern_len, s, pattern_len);    // absorbing accept
    const int cat = category_of(a);
    for (int i = 0; i < pattern_len; ++i) {
      if (cat == i % num_categories) out.AddTransition(i, s, i + 1);
    }
  }
  return out;
}

std::vector<FamilyInstance> StandardFamilies(int size_knob, int n, uint64_t seed) {
  assert(size_knob >= 2);
  Rng rng(seed);
  std::vector<FamilyInstance> out;

  Word pattern;
  for (int i = 0; i < std::min(3, n > 0 ? n : 1); ++i) {
    pattern.push_back(static_cast<Symbol>(i % 2));
  }

  out.push_back({"random", RandomNfa(size_knob, 0.25, 0.2, rng)});
  out.push_back({"lock", CombinationLock(pattern)});
  out.push_back({"substring", SubstringNfa(pattern)});
  out.push_back({"parity", ParityNfa(std::max(2, size_knob / 2))});
  out.push_back({"union_locks", UnionOfLocks(size_knob, std::max(2, n / 2))});
  out.push_back({"ambiguous", AmbiguousChain(size_knob)});
  out.push_back({"divisibility", DivisibilityNfa(std::max(2, size_knob - 1))});
  out.push_back({"reverse_det", ReverseDeterministic(size_knob, rng)});
  out.push_back({"dense", DenseCompleteNfa(std::max(2, size_knob / 2))});
  if (n >= 1) {
    Word needle;
    for (int i = 0; i < n; ++i) needle.push_back(static_cast<Symbol>((i / 2) % 2));
    out.push_back({"needle", SparseNeedle(needle)});
  }
  return out;
}

}  // namespace nfacount
