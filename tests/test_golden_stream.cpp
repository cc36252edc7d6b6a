// Pinned output stream: the words a session draws and the counts it reports
// must match committed fixtures byte for byte. Every engine change that is
// meant to leave the RNG stream alone (caches, batching, SIMD, refactors) is
// checked against these files; a change that moves the stream on purpose
// regenerates them in the same commit, with the reason in its message.
//
// The settings are those of `nfa_cli sample <file> N 64 424242`: default
// CountOptions (ε = 0.2, δ = 0.1), session seed 424242, horizon N, one
// SampleWords(N, 64) call. N is per fixture: 12 for golden.nfa and
// multi_accept.nfa, 6 for sparse70.nfa (70 states, so its reach profiles
// span two words and its unions run real covered-earlier checks). The seed
// is fixed, not TestSeed-shifted. The words and counts are rendered at
// num_threads 1, 2 and 4 against the same fixtures: the sweep and the draw
// windows split work across threads, never the stream.
//
// The work counters of the 1-thread session after its build and that draw
// are pinned too (<name>_counters_nN.txt, "counter value" per line). They
// are deterministic at one thread, so an accidental extra AppUnion, walk or
// batch fails here with no timing involved. descent_hits counts the steps
// that found their entry by a hash probe or by following a parent entry's
// child link: a followed link must count exactly the hit its probe would
// have made. A change that moves work on purpose regenerates that file and
// says why.
//
// The 1-thread session's profile_steps is not pinned but bounded: each
// worker's ReachTrie computes a prefix's reach set once, so the build takes
// at most Σ_{j=1..N} C^j forward steps (C symbol classes), and fewer than
// the Σ ℓ steps of simulating every stored word from the initial state.
//
// To regenerate, from a build with examples:
//
//   example_nfa_cli sample tests/data/<name>.nfa N 64 424242 > FILE
//
// with FILE = tests/data/<name>_sample_nN.txt, and copy the counts text —
// "ℓ %.17g" per line, ℓ = 0..N — and the counters text from this test's
// failure message into tests/data/<name>_counts_nN.txt and
// <name>_counters_nN.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "automata/io.hpp"
#include "fpras/fpras.hpp"

#ifndef NFACOUNT_TEST_DATA_DIR
#define NFACOUNT_TEST_DATA_DIR "tests/data"
#endif

namespace nfacount {
namespace {

constexpr int64_t kWords = 64;
constexpr uint64_t kSeed = 424242;

std::string DataPath(const std::string& name) {
  return std::string(NFACOUNT_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// The work counters the 1-thread fixture pins, one "name value" line each.
std::string RenderCounters(const FprasDiagnostics& d) {
  const std::pair<const char*, int64_t> counters[] = {
      {"appunion_calls", d.appunion_calls},
      {"appunion_trials", d.appunion_trials},
      {"membership_checks", d.membership_checks},
      {"sample_calls", d.sample_calls},
      {"sample_success", d.sample_success},
      {"walk_batches", d.walk_batches},
      {"descent_hits", d.descent_hits},
      {"descent_misses", d.descent_misses},
      {"padded_words", d.padded_words},
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    out += std::string(name) + " " + std::to_string(value) + "\n";
  }
  return out;
}

/// The profile_steps bound above, on a built 1-thread session.
void ExpectProfileStepsBounded(const EngineSession& session, int horizon) {
  const FprasEngine& engine = session.engine();
  const int64_t num_classes =
      engine.unrolled().symbol_classes().num_classes();
  int64_t prefixes = 0;  // Σ_{j=1..N} C^j
  int64_t simulated = 0;  // Σ ℓ over the stored samples
  for (int64_t level = 1, power = 1; level <= horizon; ++level) {
    power *= num_classes;
    prefixes += power;
    for (const StateLevelData& cell :
         engine.LevelStateAt(static_cast<int>(level)).cells) {
      simulated += level * cell.samples.count();
    }
  }
  const int64_t steps = session.diagnostics().profile_steps;
  EXPECT_GT(steps, 0);
  EXPECT_LE(steps, prefixes);
  EXPECT_LT(steps, simulated);
}

/// Draws, counts and work counters of the pinned session over `nfa_file`
/// at `horizon` and `threads` (and a descent-cache budget of
/// `descent_capacity` entries), rendered as the fixtures store them.
void RenderStream(const std::string& nfa_file, int horizon, int threads,
                  std::string* words, std::string* counts,
                  std::string* counters,
                  int64_t descent_capacity =
                      FprasParams::kDefaultDescentCacheCapacity) {
  Result<Nfa> nfa = LoadNfaFile(DataPath(nfa_file));
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  CountOptions options;
  options.seed = kSeed;
  options.num_threads = threads;
  options.descent_cache_capacity = descent_capacity;
  Result<EngineSession> session =
      EngineSession::Create(*nfa, horizon, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<std::vector<Word>> drawn = session->SampleWords(horizon, kWords);
  ASSERT_TRUE(drawn.ok()) << drawn.status().ToString();
  *counters = RenderCounters(session->diagnostics());
  if (threads == 1) ExpectProfileStepsBounded(*session, horizon);
  for (const Word& w : *drawn) *words += WordToString(w) + "\n";
  for (int length = 0; length <= horizon; ++length) {
    Result<double> c = session->CountAtLength(length);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    char line[64];
    std::snprintf(line, sizeof(line), "%d %.17g\n", length, *c);
    *counts += line;
  }
}

void ExpectMatchesFixtures(const std::string& name, int horizon) {
  const std::string suffix = "_n" + std::to_string(horizon) + ".txt";
  const std::string want_words = ReadFile(DataPath(name + "_sample" + suffix));
  const std::string want_counts = ReadFile(DataPath(name + "_counts" + suffix));
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    std::string words;
    std::string counts;
    std::string counters;
    RenderStream(name + ".nfa", horizon, threads, &words, &counts,
                 &counters);
    EXPECT_EQ(words, want_words);
    EXPECT_EQ(counts, want_counts);
    // The counters are those of the default engine: the process-wide
    // NFACOUNT_DESCENT_CACHE override (CI's uncached leg) changes the work
    // by design, though never the words or counts.
    if (threads == 1 && std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
      EXPECT_EQ(counters, ReadFile(DataPath(name + "_counters" + suffix)));
    }
  }
}

// Plain tests rather than a parameterized suite, so `--smoke` runs them too.
TEST(GoldenStream, SingleAcceptingStateMatchesFixtures) {
  ExpectMatchesFixtures("golden", 12);
}

// Three live accepting states: the counts are AppUnion estimates rather
// than one cell's N.
TEST(GoldenStream, MultiAcceptingMatchesFixtures) {
  ExpectMatchesFixtures("multi_accept", 12);
}

// Two-word reach profiles and overlapping unions: the covered-earlier scan
// does real work here (golden.nfa's membership_checks is 0).
TEST(GoldenStream, SparseTwoWordProfilesMatchFixtures) {
  ExpectMatchesFixtures("sparse70", 6);
}

// A 256-entry descent cache fills up during the build. Walks then meet
// admitted entries whose drawn child was refused (no child link is ever
// published for it), refused entries whose children probe without a link,
// and followed links, all in one descent, at 1 and 4 threads. The words and
// counts are the fixtures' all the same.
TEST(GoldenStream, SparseSpentDescentBudgetMatchesFixtures) {
  const std::string want_words = ReadFile(DataPath("sparse70_sample_n6.txt"));
  const std::string want_counts = ReadFile(DataPath("sparse70_counts_n6.txt"));
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    std::string words;
    std::string counts;
    std::string counters;
    RenderStream("sparse70.nfa", 6, threads, &words, &counts, &counters,
                 /*descent_capacity=*/256);
    EXPECT_EQ(words, want_words);
    EXPECT_EQ(counts, want_counts);
  }
}

}  // namespace
}  // namespace nfacount
