// Quickstart: build a small NFA by hand, approximate |L(A_n)| with the
// paper's FPRAS, compare against the exact count, and draw a few
// almost-uniform words.
//
//   $ ./quickstart

#include <cstdio>
#include <vector>

#include "automata/nfa.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"

using namespace nfacount;

int main() {
  // Words over {0,1} containing "101" as a substring (classic NFA: guess the
  // occurrence, then verify).
  Nfa nfa(2);
  StateId s0 = nfa.AddState();  // guessing
  StateId s1 = nfa.AddState();  // saw 1
  StateId s2 = nfa.AddState();  // saw 10
  StateId s3 = nfa.AddState();  // saw 101 (absorbing accept)
  nfa.SetInitial(s0);
  nfa.AddAccepting(s3);
  for (Symbol b : {Symbol{0}, Symbol{1}}) {
    nfa.AddTransition(s0, b, s0);
    nfa.AddTransition(s3, b, s3);
  }
  nfa.AddTransition(s0, Symbol{1}, s1);
  nfa.AddTransition(s1, Symbol{0}, s2);
  nfa.AddTransition(s2, Symbol{1}, s3);

  const int n = 16;

  // 1. Approximate counting (Theorem 3 guarantee: within (1±eps) w.p. 1-delta).
  CountOptions options;
  options.eps = 0.2;
  options.delta = 0.1;
  options.seed = 42;
  Result<CountEstimate> approx = ApproxCount(nfa, n, options);
  if (!approx.ok()) {
    std::fprintf(stderr, "ApproxCount failed: %s\n",
                 approx.status().ToString().c_str());
    return 1;
  }

  // 2. Exact count for comparison (exponential in general; fine here).
  Result<BigUint> exact = ExactCountViaDfa(nfa, n);
  if (!exact.ok()) {
    std::fprintf(stderr, "exact count failed: %s\n",
                 exact.status().ToString().c_str());
    return 1;
  }

  const double est = approx->estimate;
  const double truth = exact->ToDouble();
  std::printf("words of length %d containing \"101\":\n", n);
  std::printf("  FPRAS estimate : %.1f\n", est);
  std::printf("  exact count    : %.1f\n", truth);
  std::printf("  relative error : %.4f (eps = %.2f)\n",
              truth > 0 ? std::abs(est - truth) / truth : 0.0, options.eps);
  std::printf("  FPRAS wall time: %.1f ms, AppUnion calls: %lld\n",
              approx->diagnostics.wall_seconds * 1e3,
              static_cast<long long>(approx->diagnostics.appunion_calls));

  // 3. Almost-uniform generation from the same language (Theorem 2): an
  //    EngineSession builds the tables once and draws all five words in one
  //    call.
  CountOptions sampler_options;
  sampler_options.seed = 7;
  Result<EngineSession> session = EngineSession::Create(nfa, n, sampler_options);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<Word>> words = session->SampleWords(n, 5);
  if (!words.ok()) {
    std::fprintf(stderr, "sampling failed: %s\n",
                 words.status().ToString().c_str());
    return 1;
  }
  std::printf("five almost-uniform members of the language:\n");
  for (const Word& word : *words) {
    std::printf("  %s\n", WordToString(word).c_str());
  }
  return 0;
}
