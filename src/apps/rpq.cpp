#include "apps/rpq.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "automata/regex.hpp"
#include "fpras/session.hpp"

namespace nfacount {

GraphDb::GraphDb(int num_nodes, int num_labels)
    : num_nodes_(num_nodes), num_labels_(num_labels) {
  assert(num_nodes >= 1);
  assert(num_labels >= 1 && num_labels <= kMaxAlphabetSize);
  adj_.assign(num_nodes,
              std::vector<std::vector<int>>(static_cast<size_t>(num_labels)));
}

Status GraphDb::AddEdge(int src, Symbol label, int dst) {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::Invalid("node out of range");
  }
  if (label >= num_labels_) return Status::Invalid("label out of range");
  adj_[src][label].push_back(dst);
  ++num_edges_;
  return Status::Ok();
}

const std::vector<int>& GraphDb::Neighbors(int src, Symbol label) const {
  return adj_[src][label];
}

Result<Nfa> GraphDb::ToNfa(int src, int dst) const {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::Invalid("query node out of range");
  }
  Nfa out(num_labels_);
  out.AddStates(num_nodes_);
  out.SetInitial(src);
  out.AddAccepting(dst);
  for (int u = 0; u < num_nodes_; ++u) {
    for (int l = 0; l < num_labels_; ++l) {
      for (int v : adj_[u][l]) {
        out.AddTransition(u, static_cast<Symbol>(l), v);
      }
    }
  }
  return out;
}

Result<Nfa> BuildRpqProduct(const GraphDb& db, int src, int dst,
                            const std::string& regex) {
  Nfa db_nfa(1);
  NFA_ASSIGN_OR_RETURN(db_nfa, db.ToNfa(src, dst));
  Nfa regex_nfa(1);
  NFA_ASSIGN_OR_RETURN(regex_nfa, CompileRegex(regex, db.num_labels()));
  return Intersect(db_nfa, regex_nfa).Trimmed();
}

Result<CountEstimate> CountRpqAnswers(const GraphDb& db, int src, int dst,
                                      const std::string& regex, int n,
                                      const CountOptions& options) {
  Nfa product(1);
  NFA_ASSIGN_OR_RETURN(product, BuildRpqProduct(db, src, dst, regex));
  return ApproxCount(product, n, options);
}

Result<double> CountRpqAnswersUpTo(const GraphDb& db, int src, int dst,
                                   const std::string& regex, int n,
                                   const CountOptions& options) {
  Nfa product(1);
  NFA_ASSIGN_OR_RETURN(product, BuildRpqProduct(db, src, dst, regex));
  // One FPRAS run serves every length (the DP computes all slices); split
  // the confidence budget across the n+1 per-length union estimates.
  CountOptions split = options;
  split.delta = options.delta / static_cast<double>(n + 1);
  std::vector<double> per_length;
  NFA_ASSIGN_OR_RETURN(per_length, ApproxCountAllLengths(product, n, split));
  double total = 0.0;
  for (double est : per_length) total += est;
  return total;
}

Result<std::vector<Word>> SampleRpqAnswers(const GraphDb& db, int src, int dst,
                                           const std::string& regex, int n,
                                           int64_t count,
                                           const CountOptions& options) {
  if (count < 0) return Status::Invalid("count must be >= 0");
  Nfa product(1);
  NFA_ASSIGN_OR_RETURN(product, BuildRpqProduct(db, src, dst, regex));
  Result<EngineSession> session = EngineSession::Create(product, n, options);
  if (!session.ok()) return session.status();
  std::vector<Word> out;
  for (int64_t left = count; left > 0;) {
    const int64_t chunk = std::min(left, EngineSession::kMaxDrawsPerCall);
    Result<std::vector<Word>> words = session->SampleWords(n, chunk);
    if (!words.ok()) return words.status();
    out.insert(out.end(), std::make_move_iterator(words->begin()),
               std::make_move_iterator(words->end()));
    left -= chunk;
  }
  return out;
}

Result<std::vector<std::vector<int>>> WitnessPaths(const GraphDb& db, int src,
                                                   int dst, const Word& word,
                                                   int64_t limit) {
  if (src < 0 || src >= db.num_nodes() || dst < 0 || dst >= db.num_nodes()) {
    return Status::Invalid("query node out of range");
  }
  std::vector<std::vector<int>> out;
  std::vector<int> path = {src};
  // DFS over the labeled word.
  struct Frame {
    size_t next_idx = 0;
  };
  std::vector<Frame> stack(1);
  while (!stack.empty()) {
    const size_t depth = stack.size() - 1;
    if (depth == word.size()) {
      if (path.back() == dst) {
        out.push_back(path);
        if (static_cast<int64_t>(out.size()) >= limit) return out;
      }
      stack.pop_back();
      if (!stack.empty()) path.pop_back();
      continue;
    }
    const auto& nbrs = db.Neighbors(path.back(), word[depth]);
    Frame& top = stack.back();
    if (top.next_idx >= nbrs.size()) {
      stack.pop_back();
      if (!stack.empty()) path.pop_back();
      continue;
    }
    int next = nbrs[top.next_idx++];
    path.push_back(next);
    stack.emplace_back();
  }
  return out;
}

}  // namespace nfacount
