// Tests for the flat CSR transition layout and the batched membership path:
// construction equivalence against the per-state Nfa adjacency, PredSet and
// successor-table equivalence on random frontiers, per-level counts
// cross-checked against the exact subset DP, and MembershipBatch prefix
// coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "automata/generators.hpp"
#include "automata/unrolled.hpp"
#include "counting/exact.hpp"
#include "counting/union_mc.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

// CSR rows must list exactly the legacy adjacency, in the same order.
TEST(Csr, RowsMatchLegacyAdjacency) {
  Rng rng(TestSeed(101));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(5 + static_cast<int>(rng.UniformU64(12)), 0.25, 0.3, rng);
    CsrTransitions fwd = CsrTransitions::FromSuccessors(nfa);
    CsrTransitions bwd = CsrTransitions::FromPredecessors(nfa);
    ASSERT_EQ(fwd.num_states, nfa.num_states());
    ASSERT_EQ(fwd.alphabet_size, nfa.alphabet_size());
    ASSERT_EQ(static_cast<int64_t>(fwd.targets.size()), nfa.num_transitions());
    ASSERT_EQ(static_cast<int64_t>(bwd.targets.size()), nfa.num_transitions());
    ASSERT_EQ(fwd.targets.size(), fwd.symbols.size());
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        const Symbol s = static_cast<Symbol>(a);
        std::vector<StateId> fwd_row(fwd.RowBegin(q, s), fwd.RowEnd(q, s));
        EXPECT_EQ(fwd_row, nfa.Successors(q, s)) << "q=" << q << " a=" << a;
        std::vector<StateId> bwd_row(bwd.RowBegin(q, s), bwd.RowEnd(q, s));
        EXPECT_EQ(bwd_row, nfa.Predecessors(q, s)) << "q=" << q << " a=" << a;
        for (const StateId* e = fwd.RowBegin(q, s); e != fwd.RowEnd(q, s); ++e) {
          EXPECT_EQ(fwd.symbols[static_cast<size_t>(e - fwd.targets.data())], s);
        }
      }
    }
  }
}

// The forward CSR carries no row masks (forward steps read UnrolledNfa's
// successor table), so StepInto scatters its rows; it must equal the
// pointer-walk one-step image.
TEST(Csr, StepIntoMatchesNfaStep) {
  Rng rng(TestSeed(102));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(4 + static_cast<int>(rng.UniformU64(16)), 0.3, 0.3, rng);
    CsrTransitions fwd = CsrTransitions::FromSuccessors(nfa);
    Bitset out(nfa.num_states());
    for (int rep = 0; rep < 10; ++rep) {
      Bitset from(nfa.num_states());
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        if (rng.Bernoulli(0.3)) from.Set(q);
      }
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        fwd.StepInto(from, static_cast<Symbol>(a), &out);
        EXPECT_EQ(out, nfa.Step(from, static_cast<Symbol>(a)));
      }
    }
  }
}

/// m states over 4 symbols with random rows of the given density, where
/// symbol 3 copies every row of symbol 1: class {1, 3} has the
/// non-representative member 3.
Nfa SharedClassRandomNfa(int m, double density, Rng& rng) {
  Nfa nfa(4);
  nfa.AddStates(m);
  nfa.SetInitial(0);
  nfa.AddAccepting(m - 1);
  for (StateId q = 0; q < m; ++q) {
    for (Symbol a = 0; a < 3; ++a) {
      for (StateId r = 0; r < m; ++r) {
        if (!rng.Bernoulli(density)) continue;
        nfa.AddTransition(q, a, r);
        if (a == 1) nfa.AddTransition(q, 3, r);
      }
    }
  }
  return nfa;
}

/// Random frontiers over `m` states (the empty and the full set among them)
/// must step to Nfa::Step's image under every symbol, through both the
/// Bitset and the raw-span entry points.
void ExpectForwardStepsMatchNfa(const UnrolledNfa& unr, const Nfa& nfa,
                                Rng& rng) {
  const int m = nfa.num_states();
  Bitset out(static_cast<size_t>(m));
  std::vector<uint64_t> span_out(out.words().size(), ~uint64_t{0});
  for (int rep = 0; rep < 12; ++rep) {
    const double p = rep == 0 ? 0.0 : rep == 1 ? 1.0 : 0.05 * rep;
    Bitset from(static_cast<size_t>(m));
    for (StateId q = 0; q < m; ++q) {
      if (rng.Bernoulli(p)) from.Set(q);
    }
    for (int a = 0; a < nfa.alphabet_size(); ++a) {
      const Symbol s = static_cast<Symbol>(a);
      const Bitset want = nfa.Step(from, s);
      unr.SuccSetInto(from, s, &out);
      EXPECT_EQ(out, want) << "m=" << m << " a=" << a << " rep=" << rep;
      unr.SuccSetWordsInto(from.words().data(), s, span_out.data());
      EXPECT_EQ(Bitset::FromWords(static_cast<size_t>(m), span_out.data()),
                want)
          << "m=" << m << " a=" << a << " rep=" << rep;
    }
  }
}

// The byte-indexed successor table steps exactly like the adjacency: partial
// last chunks (m mod 8 != 0), word boundaries (63/64/65, 129) and a class
// member that is not its class's representative.
TEST(Csr, SuccessorTableStepMatchesNfaStep) {
  Rng rng(TestSeed(107));
  for (int m : {1, 7, 8, 9, 63, 64, 65, 70, 129}) {
    const Nfa nfa = SharedClassRandomNfa(m, 0.15, rng);
    UnrolledNfa unr(&nfa, 2);
    ASSERT_TRUE(unr.has_successor_table()) << "m=" << m;
    const SymbolClassIndex& classes = unr.symbol_classes();
    ASSERT_EQ(classes.ClassOf(1), classes.ClassOf(3)) << "m=" << m;
    ASSERT_EQ(classes.Representative(classes.ClassOf(3)), Symbol{1});
    ExpectForwardStepsMatchNfa(unr, nfa, rng);
  }
}

// Above CsrTransitions::kMaskBitBudget the table is not built and forward
// steps scatter the CSR rows. One class and m = 3000 make the table
// 375 chunks · 256 entries · 47 words · 64 bits ≈ 2^28.1 bits.
TEST(Csr, OverBudgetAutomatonStepsTheCsrRows) {
  const int m = 3000;
  Nfa nfa(1);
  nfa.AddStates(m);
  nfa.SetInitial(0);
  nfa.AddAccepting(m - 1);
  for (StateId q = 0; q < m; ++q) {
    nfa.AddTransition(q, 0, (q + 1) % m);
    nfa.AddTransition(q, 0, (7 * q + 3) % m);
  }
  UnrolledNfa unr(&nfa, 3);
  ASSERT_FALSE(unr.has_successor_table());
  Rng rng(TestSeed(108));
  ExpectForwardStepsMatchNfa(unr, nfa, rng);
  const Word w = {0, 0, 0};
  EXPECT_EQ(unr.ReachProfile(w), nfa.Reach(w));
}

// The CSR predecessor expansion must equal the pointer-walk expansion over
// the Nfa adjacency (Nfa::StepBack clipped to the previous level's reachable
// set) for every level and random frontier.
TEST(Csr, PredSetMatchesLegacy) {
  Rng rng(TestSeed(103));
  for (int trial = 0; trial < 6; ++trial) {
    Nfa nfa = RandomNfa(6 + static_cast<int>(rng.UniformU64(10)), 0.25, 0.3, rng);
    const int n = 7;
    UnrolledNfa unr(&nfa, n);
    Bitset out(nfa.num_states());
    for (int level = 1; level <= n; ++level) {
      for (int rep = 0; rep < 6; ++rep) {
        Bitset frontier(nfa.num_states());
        for (StateId q = 0; q < nfa.num_states(); ++q) {
          if (rng.Bernoulli(0.4)) frontier.Set(q);
        }
        for (int a = 0; a < nfa.alphabet_size(); ++a) {
          const Symbol s = static_cast<Symbol>(a);
          Bitset legacy = nfa.StepBack(frontier, s);
          legacy &= unr.ReachableAt(level - 1);
          EXPECT_EQ(unr.PredSet(frontier, s, level), legacy);
          unr.PredSetInto(frontier, s, level, &out);
          EXPECT_EQ(out, legacy);
        }
      }
    }
  }
}

// Level reachability built on the CSR must agree with a from-scratch legacy
// computation (Nfa::Step) and with per-level counts under the exact DP:
// |L(q^ℓ)| > 0 exactly for the reachable copies.
TEST(Csr, ReachableSetsAndLevelCountsMatchExact) {
  Rng rng(TestSeed(104));
  for (int trial = 0; trial < 5; ++trial) {
    Nfa nfa = RandomNfa(6, 0.25, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);

    // Legacy recomputation of the level frontiers.
    Bitset cur(nfa.num_states());
    cur.Set(nfa.initial());
    EXPECT_EQ(unr.ReachableAt(0), cur);
    for (int level = 1; level <= n; ++level) {
      Bitset next(nfa.num_states());
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        next |= nfa.Step(cur, static_cast<Symbol>(a));
      }
      EXPECT_EQ(unr.ReachableAt(level), next) << "level=" << level;
      cur = next;
    }

    Result<SubsetDp> dp = SubsetDp::Run(nfa, n);
    ASSERT_TRUE(dp.ok());
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        const bool nonempty = !dp->StateLevelCount(q, level).IsZero();
        EXPECT_EQ(unr.IsReachable(q, level), nonempty)
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

// Reach profiles computed by forward stepping must match Nfa::Reach.
TEST(Csr, ReachProfileMatchesNfaReach) {
  Rng rng(TestSeed(105));
  Nfa nfa = RandomNfa(9, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 6);
  for (int trial = 0; trial < 40; ++trial) {
    Word w;
    const int len = static_cast<int>(rng.UniformU64(7));
    for (int i = 0; i < len; ++i) {
      w.push_back(static_cast<Symbol>(rng.UniformU64(2)));
    }
    EXPECT_EQ(unr.ReachProfile(w), nfa.Reach(w)) << WordToString(w);
  }
}

// MembershipBatch::CoveredBefore must equal the naive prefix loop.
TEST(Csr, MembershipBatchMatchesNaivePrefixScan) {
  Rng rng(TestSeed(106));
  const size_t universe = 70;  // straddles a word boundary
  for (int trial = 0; trial < 10; ++trial) {
    const int k = 1 + static_cast<int>(rng.UniformU64(12));
    std::vector<int> owners;
    for (int i = 0; i < k; ++i) {
      owners.push_back(static_cast<int>(rng.UniformU64(universe)));
    }
    MembershipBatch batch;
    batch.Rebuild(universe, owners);
    ASSERT_EQ(batch.size(), static_cast<size_t>(k));
    for (int rep = 0; rep < 20; ++rep) {
      Bitset profile(universe);
      for (size_t b = 0; b < universe; ++b) {
        if (rng.Bernoulli(0.1)) profile.Set(b);
      }
      for (int i = 1; i < k; ++i) {
        bool naive = false;
        for (int j = 0; j < i && !naive; ++j) {
          naive = profile.Test(static_cast<size_t>(owners[j]));
        }
        EXPECT_EQ(batch.CoveredBefore(profile, static_cast<size_t>(i)), naive)
            << "trial=" << trial << " i=" << i;
      }
    }
  }
}

// A drawn word's MakeSample row must be its true reach profile.
TEST(Csr, MakeSampleOfDrawnWordCarriesReachProfile) {
  Rng rng(TestSeed(111));
  Nfa nfa = RandomNfa(6, 0.35, 0.4, rng);
  CountOptions opts;
  opts.seed = TestSeed(112);
  Result<EngineSession> session = EngineSession::Create(nfa, 5, opts);
  ASSERT_TRUE(session.ok());
  Result<std::vector<Word>> words = session->SampleWords(5, 8);
  ASSERT_TRUE(words.ok());
  for (Word& w : *words) {
    const StoredSample s = session->engine().unrolled().MakeSample(std::move(w));
    EXPECT_EQ(s.reach, nfa.Reach(s.word)) << WordToString(s.word);
    EXPECT_TRUE(s.reach.Intersects(nfa.accepting()));
  }
}

}  // namespace
}  // namespace nfacount
