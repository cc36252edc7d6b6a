// Example: regular path queries on a graph database.
//
// Builds a small "transport network" database with two edge labels
// (0 = road, 1 = rail), then answers RPQs: how many distinct label itineraries
// of length n connect two hubs under a regex policy, sample typical
// itineraries uniformly, and materialize witness paths for one of them.
//
//   $ ./rpq_counting

#include <cstdio>

#include "apps/rpq.hpp"

using namespace nfacount;

int main() {
  // 8 stations; roads form a ring, rail connects hubs 0-4 and shortcuts.
  GraphDb db(8, 2);
  for (int u = 0; u < 8; ++u) {
    (void)db.AddEdge(u, Symbol{0}, (u + 1) % 8);  // ring road
  }
  (void)db.AddEdge(0, Symbol{1}, 4);
  (void)db.AddEdge(4, Symbol{1}, 0);
  (void)db.AddEdge(2, Symbol{1}, 6);
  (void)db.AddEdge(6, Symbol{1}, 2);
  (void)db.AddEdge(1, Symbol{1}, 5);

  const int src = 0, dst = 6;
  const int n = 11;  // e.g. two roads, rail 2->6, then a full ring loop
  // Policy: at most two rail legs, never consecutive.
  const std::string policy = "0*(10+){0,2}1?0*";

  std::printf("stations=%d road/rail edges=%lld, query: %d -> %d, length %d\n",
              db.num_nodes(), static_cast<long long>(db.num_edges()), src, dst,
              n);
  std::printf("policy regex: %s\n\n", policy.c_str());

  CountOptions count_options;
  count_options.eps = 0.25;
  count_options.delta = 0.1;
  count_options.seed = 3;
  Result<CountEstimate> count =
      CountRpqAnswers(db, src, dst, policy, n, count_options);
  if (!count.ok()) {
    std::fprintf(stderr, "count failed: %s\n", count.status().ToString().c_str());
    return 1;
  }
  std::printf("distinct compliant itineraries of length %d: ~%.1f\n", n,
              count->estimate);
  std::printf("(product automaton: %d states; FPRAS time %.1f ms)\n",
              count->params.m, count->diagnostics.wall_seconds * 1e3);

  Result<double> up_to = CountRpqAnswersUpTo(db, src, dst, policy, n,
                                             count_options);
  if (up_to.ok()) {
    std::printf("itineraries of length <= %d: ~%.1f\n\n", n, up_to.value());
  }

  if (!(count->estimate > 0.0)) {
    std::printf("no itineraries of this exact length; nothing to sample\n");
    return 0;
  }
  CountOptions sampler_options;
  sampler_options.eps = 0.25;
  sampler_options.delta = 0.1;
  sampler_options.seed = 4;
  Result<std::vector<Word>> samples =
      SampleRpqAnswers(db, src, dst, policy, n, 5, sampler_options);
  if (!samples.ok()) {
    std::fprintf(stderr, "sampling failed: %s\n",
                 samples.status().ToString().c_str());
    return 1;
  }
  std::printf("five almost-uniform itineraries (0=road, 1=rail):\n");
  for (const Word& w : *samples) {
    std::printf("  %s", WordToString(w).c_str());
    Result<std::vector<std::vector<int>>> paths =
        WitnessPaths(db, src, dst, w, /*limit=*/1);
    if (paths.ok() && !paths->empty()) {
      std::printf("   via stations");
      for (int station : paths->front()) std::printf(" %d", station);
    }
    std::printf("\n");
  }
  return 0;
}
