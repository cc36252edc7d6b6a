// E10 — End-to-end application pipelines from the paper's introduction:
// probabilistic query evaluation (PQE) and regular path query (RPQ)
// counting/sampling. google-benchmark timings for the pipelines plus a
// correctness table against exact counts on small instances.
//
// The point reproduced: the reductions are linear (lineage/product sizes in
// the tables) — the counting step dominates, which is exactly why a faster
// FPRAS matters (paper §1).

#include <benchmark/benchmark.h>

#include <cmath>

#include "apps/pqe.hpp"
#include "apps/rpq.hpp"
#include "automata/generators.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

// Layered random DAG database: `width` nodes per layer, 3 layers, 2 relations.
ProbGraphDb MakeDb(int width, uint64_t seed) {
  ProbGraphDb db(3 * width, 2);
  Rng rng(seed);
  for (int a = 0; a < width; ++a) {
    for (int b = width; b < 2 * width; ++b) {
      if (rng.Bernoulli(0.5)) (void)db.AddFact(0, a, b);
    }
  }
  for (int b = width; b < 2 * width; ++b) {
    for (int c = 2 * width; c < 3 * width; ++c) {
      if (rng.Bernoulli(0.5)) (void)db.AddFact(1, b, c);
    }
  }
  return db;
}

GraphDb MakeGraph(int nodes, uint64_t seed) {
  GraphDb db(nodes, 2);
  Rng rng(seed);
  for (int u = 0; u < nodes; ++u) {
    for (int label = 0; label < 2; ++label) {
      int degree = 1 + static_cast<int>(rng.UniformU64(2));
      for (int d = 0; d < degree; ++d) {
        (void)db.AddEdge(u, static_cast<Symbol>(label),
                         static_cast<int>(rng.UniformU64(nodes)));
      }
    }
  }
  return db;
}

void BM_PqePipeline(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  ProbGraphDb db = MakeDb(width, 77);
  PathQuery query{{0, 1}};
  CountOptions options = DefaultOptions(5);
  double clauses = 0, states = 0;
  for (auto _ : state) {
    Result<PqeResult> r = ApproxPqe(db, query, options);
    if (r.ok()) {
      benchmark::DoNotOptimize(r->probability);
      clauses = r->lineage_clauses;
      states = r->nfa_states;
    }
  }
  state.counters["facts"] = static_cast<double>(db.num_facts());
  state.counters["lineage_clauses"] = clauses;
  state.counters["nfa_states"] = states;
}
BENCHMARK(BM_PqePipeline)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
// width=4 runs ~7s per count; one iteration is enough for the table.
BENCHMARK(BM_PqePipeline)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_RpqCount(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  GraphDb db = MakeGraph(nodes, 99);
  CountOptions options = DefaultOptions(6);
  const int n = 8;
  double product_states = 0;
  for (auto _ : state) {
    Result<CountEstimate> r = CountRpqAnswers(db, 0, nodes - 1, "(01)*(0|1)*", n,
                                              options);
    if (r.ok()) {
      benchmark::DoNotOptimize(r->estimate);
      product_states = r->params.m;
    }
  }
  state.counters["product_states"] = product_states;
}
BENCHMARK(BM_RpqCount)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_RpqSampleAnswers(benchmark::State& state) {
  GraphDb db = MakeGraph(16, 99);
  CountOptions options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.seed = 8;
  for (auto _ : state) {
    Result<std::vector<Word>> words =
        SampleRpqAnswers(db, 0, 15, "(0|1)*1", 8, 32, options);
    if (words.ok()) benchmark::DoNotOptimize(words->size());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_RpqSampleAnswers)->Unit(benchmark::kMillisecond);

void CorrectnessTables() {
  Section("E10a: PQE accuracy vs exact possible-world semantics");
  Row({"width", "facts", "clauses", "raw_states", "reduced", "exact_prob",
       "approx_prob", "relerr"},
      11);
  for (int width : {2, 3}) {
    ProbGraphDb db = MakeDb(width, 77);
    PathQuery query{{0, 1}};
    Result<double> exact = ExactPqe(db, query);
    Result<PqeResult> approx = ApproxPqe(db, query, DefaultOptions(5));
    if (!exact.ok() || !approx.ok()) continue;
    double relerr = exact.value() > 0
                        ? std::abs(approx->probability / exact.value() - 1.0)
                        : approx->probability;
    Row({FmtInt(width), FmtInt(db.num_facts()), FmtInt(approx->lineage_clauses),
         FmtInt(approx->nfa_states), FmtInt(approx->reduced_states),
         Fmt(exact.value(), "%.5f"), Fmt(approx->probability, "%.5f"),
         Fmt(relerr, "%.4f")},
        11);
  }
  std::printf("(reduced = after bisimulation quotient: the clause chains\n"
              " share suffixes, so the instance the FPRAS runs is smaller)\n");

  Section("E10c: weighted PQE (dyadic probabilities, threshold gadgets)");
  Row({"width", "bits", "raw_states", "reduced", "exact_prob", "approx_prob",
       "relerr"},
      11);
  for (int width : {2, 3}) {
    ProbGraphDb db(3 * width, 2);
    Rng rng(500 + width);
    const DyadicProb probs[] = {{3, 2}, {1, 3}, {7, 3}, {1, 1}};
    int idx = 0;
    for (int a = 0; a < width; ++a) {
      for (int b = width; b < 2 * width; ++b) {
        if (rng.Bernoulli(0.5)) (void)db.AddFactWithProb(0, a, b, probs[idx++ % 4]);
      }
    }
    for (int b = width; b < 2 * width; ++b) {
      for (int c = 2 * width; c < 3 * width; ++c) {
        if (rng.Bernoulli(0.5)) (void)db.AddFactWithProb(1, b, c, probs[idx++ % 4]);
      }
    }
    PathQuery query{{0, 1}};
    Result<double> exact = ExactPqeWeighted(db, query);
    Result<PqeResult> approx = ApproxPqeWeighted(db, query, DefaultOptions(7));
    if (!exact.ok() || !approx.ok()) continue;
    double relerr = exact.value() > 0
                        ? std::abs(approx->probability / exact.value() - 1.0)
                        : approx->probability;
    Row({FmtInt(width), FmtInt(approx->count.params.n),
         FmtInt(approx->nfa_states), FmtInt(approx->reduced_states),
         Fmt(exact.value(), "%.5f"), Fmt(approx->probability, "%.5f"),
         Fmt(relerr, "%.4f")},
        11);
  }

  Section("E10b: RPQ count accuracy vs brute-force enumeration");
  Row({"nodes", "n", "exact", "approx", "relerr"});
  for (int nodes : {8, 16}) {
    GraphDb db = MakeGraph(nodes, 99);
    const int n = 8;
    Result<Nfa> product = BuildRpqProduct(db, 0, nodes - 1, "(01)*(0|1)*");
    if (!product.ok()) continue;
    double truth = ExactOrNeg(*product, n);
    Result<CountEstimate> approx =
        CountRpqAnswers(db, 0, nodes - 1, "(01)*(0|1)*", n, DefaultOptions(6));
    if (!approx.ok()) continue;
    double relerr =
        truth > 0 ? std::abs(approx->estimate / truth - 1.0) : approx->estimate;
    Row({FmtInt(nodes), FmtInt(n), Fmt(truth), Fmt(approx->estimate),
         Fmt(relerr, "%.4f")});
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E10 — application pipelines (PQE, RPQ)\n");
  CorrectnessTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
