// Pinned output stream: the words a session draws and the counts it reports
// must match committed fixtures byte for byte. Every engine change that is
// meant to leave the RNG stream alone (caches, batching, SIMD, refactors) is
// checked against these files; a change that moves the stream on purpose
// regenerates them in the same commit, with the reason in its message.
//
// The settings are those of `nfa_cli sample <file> 12 64 424242`: default
// CountOptions (ε = 0.2, δ = 0.1), session seed 424242, horizon 12, one
// SampleWords(12, 64) call. The seed is fixed, not TestSeed-shifted. To
// regenerate, from a build with examples:
//
//   example_nfa_cli sample tests/data/golden.nfa 12 64 424242 > FILE
//
// with FILE = tests/data/golden_sample_n12.txt (likewise multi_accept.nfa
// into multi_accept_sample_n12.txt), and copy the counts text — "ℓ %.17g" per
// line, ℓ = 0..12 — from this test's failure message into
// tests/data/<name>_counts_n12.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/io.hpp"
#include "fpras/fpras.hpp"

#ifndef NFACOUNT_TEST_DATA_DIR
#define NFACOUNT_TEST_DATA_DIR "tests/data"
#endif

namespace nfacount {
namespace {

constexpr int kHorizon = 12;
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

/// Draws and counts of the pinned session over `nfa_file`, rendered as the
/// fixtures store them.
void RenderStream(const std::string& nfa_file, std::string* words,
                  std::string* counts) {
  Result<Nfa> nfa = LoadNfaFile(DataPath(nfa_file));
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  CountOptions options;
  options.seed = kSeed;
  Result<EngineSession> session =
      EngineSession::Create(*nfa, kHorizon, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<std::vector<Word>> drawn = session->SampleWords(kHorizon, kWords);
  ASSERT_TRUE(drawn.ok()) << drawn.status().ToString();
  for (const Word& w : *drawn) *words += WordToString(w) + "\n";
  for (int length = 0; length <= kHorizon; ++length) {
    Result<double> c = session->CountAtLength(length);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    char line[64];
    std::snprintf(line, sizeof(line), "%d %.17g\n", length, *c);
    *counts += line;
  }
}

void ExpectMatchesFixtures(const std::string& name) {
  std::string words;
  std::string counts;
  RenderStream(name + ".nfa", &words, &counts);
  EXPECT_EQ(words, ReadFile(DataPath(name + "_sample_n12.txt")));
  EXPECT_EQ(counts, ReadFile(DataPath(name + "_counts_n12.txt")));
}

// Plain tests rather than a parameterized suite, so `--smoke` runs them too.
TEST(GoldenStream, SingleAcceptingStateMatchesFixtures) {
  ExpectMatchesFixtures("golden");
}

// Three live accepting states: the counts are AppUnion estimates rather
// than one cell's N.
TEST(GoldenStream, MultiAcceptingMatchesFixtures) {
  ExpectMatchesFixtures("multi_accept");
}

}  // namespace
}  // namespace nfacount
