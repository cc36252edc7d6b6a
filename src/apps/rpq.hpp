// Regular path queries (RPQ) over labeled graph databases — the second
// application in the paper's introduction (§1, "Counting Answers to Regular
// Path Queries").
//
// A query (u, R, v, n) asks about paths from node u to node v of length
// (exactly or at most) n whose label word matches the regular expression R.
// Following the paper, the answer set we count/sample is the set of *label
// words* realizable by such a path: the product of the database automaton
// (nodes as states, u initial, v accepting) with the regex NFA is again an
// NFA, linear in |DB|·|R|, and counting its length-n slice is exactly #NFA.

#ifndef NFACOUNT_APPS_RPQ_HPP_
#define NFACOUNT_APPS_RPQ_HPP_

#include <string>
#include <vector>

#include "automata/nfa.hpp"
#include "fpras/estimator.hpp"
#include "util/status.hpp"

namespace nfacount {

/// Edge-labeled directed multigraph database. Labels are symbols of a fixed
/// alphabet (database "relation names" / edge predicates).
class GraphDb {
 public:
  GraphDb(int num_nodes, int num_labels);

  Status AddEdge(int src, Symbol label, int dst);

  int num_nodes() const { return num_nodes_; }
  int num_labels() const { return num_labels_; }
  int64_t num_edges() const { return num_edges_; }

  /// Targets reachable from `src` via one `label` edge.
  const std::vector<int>& Neighbors(int src, Symbol label) const;

  /// Database as an NFA: states = nodes, initial = src, accepting = {dst}.
  Result<Nfa> ToNfa(int src, int dst) const;

 private:
  int num_nodes_;
  int num_labels_;
  int64_t num_edges_ = 0;
  std::vector<std::vector<std::vector<int>>> adj_;  // [node][label] -> targets
};

/// Product automaton DB(u→v) × NFA(R): its length-n language is exactly the
/// set of answer words. Returned trimmed.
Result<Nfa> BuildRpqProduct(const GraphDb& db, int src, int dst,
                            const std::string& regex);

/// Approximate number of distinct answer words of length exactly n.
Result<CountEstimate> CountRpqAnswers(const GraphDb& db, int src, int dst,
                                      const std::string& regex, int n,
                                      const CountOptions& options = {});

/// Approximate number of distinct answer words of length at most n: per-level
/// counts with confidence budget split δ/(n+1); estimates are summed.
Result<double> CountRpqAnswersUpTo(const GraphDb& db, int src, int dst,
                                   const std::string& regex, int n,
                                   const CountOptions& options = {});

/// Draws `count` almost-uniform answer words of length n from one
/// EngineSession over the product automaton (requests above
/// EngineSession::kMaxDrawsPerCall are drawn in chunks of the same stream).
/// Invalid when `count` is negative.
Result<std::vector<Word>> SampleRpqAnswers(const GraphDb& db, int src, int dst,
                                           const std::string& regex, int n,
                                           int64_t count,
                                           const CountOptions& options = {});

/// All node paths src → dst realizing `word` in the database (up to `limit`).
/// A sampled answer word plus one witness path is a complete query answer.
Result<std::vector<std::vector<int>>> WitnessPaths(const GraphDb& db, int src,
                                                   int dst, const Word& word,
                                                   int64_t limit = 64);

}  // namespace nfacount

#endif  // NFACOUNT_APPS_RPQ_HPP_
