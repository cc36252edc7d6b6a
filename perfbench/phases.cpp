#include "phases.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "automata/io.hpp"
#include "automata/unrolled.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nfacount::Result;
using nfacount::Status;

namespace {

/// Words per timed SampleWords call of the draw phase.
constexpr int64_t kDrawChunk = 1024;

double Ratio(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : kNotMeasured;
}

// The two writer targets behind one call surface.

Status DoRegister(RegistryWriter t, const std::string& name,
                  const std::string& text, int seed) {
  return t.registry->Register(name, text, kWriterHorizon,
                              static_cast<uint64_t>(seed), 0.3, 0.2);
}
Status DoRegister(ClientWriter t, const std::string& name,
                  const std::string& text, int seed) {
  nfacount::serve::RegisterRequest req;
  req.name = name;
  req.nfa_text = text;
  req.horizon = kWriterHorizon;
  req.seed = static_cast<uint64_t>(seed);
  req.eps = 0.3;
  req.delta = 0.2;
  return t.client->Register(req);
}
Result<int> DoExtend(RegistryWriter t, const std::string& name) {
  return t.registry->ExtendTo(name, kWriterHorizon);
}
Result<int> DoExtend(ClientWriter t, const std::string& name) {
  return t.client->ExtendTo(name, kWriterHorizon);
}
Result<double> DoCount(RegistryWriter t, const std::string& name) {
  return t.registry->CountAtLength(name, kWriterHorizon);
}
Result<double> DoCount(ClientWriter t, const std::string& name) {
  return t.client->CountAtLength(name, kWriterHorizon);
}
Result<std::vector<Word>> DoSample(RegistryWriter t, const std::string& name) {
  return t.registry->SampleWords(name, kWriterHorizon, kSampleWords);
}
Result<std::vector<Word>> DoSample(ClientWriter t, const std::string& name) {
  Result<nfacount::serve::SampleResult> drawn =
      t.client->SampleWords(name, kWriterHorizon, kSampleWords);
  if (!drawn.ok()) return drawn.status();
  return std::move(drawn.value().words);
}
Result<bool> DoEvict(RegistryWriter t, const std::string& name) {
  return t.registry->Evict(name);
}
Result<bool> DoEvict(ClientWriter t, const std::string& name) {
  return t.client->Evict(name);
}
Status DoUnregister(RegistryWriter t, const std::string& name) {
  return t.registry->Unregister(name);
}
Status DoUnregister(ClientWriter t, const std::string& name) {
  return t.client->Unregister(name);
}

template <class Target>
WriterCycle WriterCycleImpl(Target target, int cycle, Tally* tally,
                            Tracer::Buffer* span) {
  WriterCycle out;
  out.cycle = cycle;
  const int seed = WriterSeed(cycle);
  const Nfa nfa = WriterNfa(seed);
  const std::string text = nfacount::NfaToText(nfa);
  const std::string name = "writer-" + std::to_string(cycle);
  ScopedSpan cycle_span(span, Layer::kBench, "writer.cycle", cycle);
  const auto timed_step = [&](WriterStep step, const char* span_name,
                              auto&& call) {
    const int64_t start = NowNs();
    auto result = [&] {
      ScopedSpan s(span, Layer::kServe, span_name, cycle);
      return call();
    }();
    out.step_ms[step] = static_cast<double>(NowNs() - start) * 1e-6;
    return result;
  };
  const std::string what = "writer cycle " + std::to_string(cycle) + ": ";

  const Status registered = timed_step(kRegister, "serve.register", [&] {
    return DoRegister(target, name, text, seed);
  });
  tally->Check(registered.ok(), what + "register " + registered.ToString());
  if (!registered.ok()) return out;
  const Result<int> extended = timed_step(
      kExtend, "serve.extend", [&] { return DoExtend(target, name); });
  tally->Check(extended.ok() && extended.value() == kWriterHorizon,
               what + "extend");
  const Result<double> before = timed_step(
      kCount, "serve.count", [&] { return DoCount(target, name); });
  tally->Check(before.ok(), what + "count");
  if (before.ok()) out.count_before = before.value();
  const Result<std::vector<Word>> drawn = timed_step(
      kSample, "serve.sample", [&] { return DoSample(target, name); });
  tally->Check(drawn.ok() && static_cast<int64_t>(drawn.value().size()) ==
                                 kSampleWords,
               what + "sample");
  if (drawn.ok()) CheckWords(drawn.value(), kWriterHorizon, nfa, tally);
  const Result<bool> evicted = timed_step(
      kEvict, "serve.evict", [&] { return DoEvict(target, name); });
  tally->Check(evicted.ok() && evicted.value(), what + "evict");
  const Result<double> after = timed_step(
      kRevive, "serve.revive_count", [&] { return DoCount(target, name); });
  tally->Check(after.ok(), what + "count after revive");
  if (after.ok()) out.count_after = after.value();
  const Status unregistered = timed_step(
      kUnregister, "serve.unregister",
      [&] { return DoUnregister(target, name); });
  tally->Check(unregistered.ok(), what + "unregister");
  for (double ms : out.step_ms) out.total_ms += ms;
  return out;
}

}  // namespace

std::unique_ptr<EngineSession> CreateSession(const Nfa& nfa, int horizon,
                                             uint64_t seed, int threads,
                                             RunContext* ctx, Tally* tally) {
  ScopedSpan span(ctx->span, Layer::kFpras, "fpras.create");
  Result<EngineSession> created = EngineSession::Create(
      nfa, horizon, SessionOptions(seed, threads));
  tally->Check(created.ok(), "EngineSession::Create");
  if (!created.ok()) return nullptr;
  return std::make_unique<EngineSession>(std::move(created).value());
}

double BuildSession(EngineSession* session, bool per_level, RunContext* ctx,
                    Tally* tally) {
  const int horizon = session->horizon();
  const int64_t start = NowNs();
  if (!per_level) {
    ScopedSpan span(ctx->span, Layer::kFpras, "fpras.extend_to");
    tally->Check(session->ExtendTo(horizon).ok(), "ExtendTo(horizon)");
    return SecondsSince(start);
  }
  for (int level = 1; level <= horizon; ++level) {
    const int64_t level_start = NowNs();
    {
      ScopedSpan span(ctx->span, Layer::kFpras, "fpras.extend_to", level);
      tally->Check(session->ExtendTo(level).ok(), "ExtendTo(level)");
    }
    ctx->layers.Set("fpras.level_s." + std::to_string(level),
                    SecondsSince(level_start), "s");
  }
  return SecondsSince(start);
}

void RecordBuildLayers(const nfacount::FprasDiagnostics& d,
                       double build_seconds, RunContext* ctx) {
  MetricSet& m = ctx->layers;
  m.Set("counting.appunion_calls", static_cast<double>(d.appunion_calls),
        "count");
  m.Set("counting.appunion_trials", static_cast<double>(d.appunion_trials),
        "count");
  m.Set("counting.membership_checks",
        static_cast<double>(d.membership_checks), "count");
  m.Set("counting.appunion_ns_per_trial",
        d.appunion_trials > 0
            ? build_seconds * 1e9 / static_cast<double>(d.appunion_trials)
            : kNotMeasured,
        "ns");
  m.Set("fpras.walk_attempts", static_cast<double>(d.sample_calls), "count");
  m.Set("fpras.walk_accept_ratio", Ratio(d.sample_success, d.sample_calls),
        "1");
  m.Set("fpras.walk_batches", static_cast<double>(d.walk_batches), "count");
}

void DrawChunks(EngineSession* session, const Nfa& nfa, int chunks,
                RunContext* ctx, Tally* tally, DrawStats* stats) {
  const int length = session->horizon();
  ScopedSpan phase(ctx->span, Layer::kBench, "phase.draws");
  const auto draw = [&] {
    ScopedSpan span(ctx->span, Layer::kFpras, "fpras.sample_words");
    return session->SampleWords(length, kDrawChunk);
  };
  {
    const Result<std::vector<Word>> warm = draw();
    tally->Check(warm.ok(), "warm-up SampleWords");
  }
  const nfacount::FprasDiagnostics before = session->diagnostics();
  for (int chunk = 0; chunk < chunks; ++chunk) {
    const int64_t start = NowNs();
    const Result<std::vector<Word>> drawn = draw();
    const double elapsed = SecondsSince(start);
    tally->Check(drawn.ok() && static_cast<int64_t>(drawn.value().size()) ==
                                   kDrawChunk,
                 "SampleWords chunk");
    if (!drawn.ok()) break;
    {
      ScopedSpan span(ctx->span, Layer::kAutomata, "automata.accepts");
      CheckWords(drawn.value(), length, nfa, tally);
    }
    stats->chunk_us.push_back(elapsed * 1e6);
  }
  const nfacount::FprasDiagnostics after = session->diagnostics();
  stats->descent_hits += after.descent_hits - before.descent_hits;
  stats->descent_misses += after.descent_misses - before.descent_misses;
  stats->memo_hits += after.memo_hits - before.memo_hits;
  stats->memo_misses += after.memo_misses - before.memo_misses;
}

void RecordDrawMetrics(const DrawStats& stats, RunContext* ctx) {
  const double chunk_us = TrimmedMean(stats.chunk_us);
  PrintSamples("draw_chunk_us", stats.chunk_us);
  ctx->e2e.Set("draws_per_s",
               chunk_us > 0.0 ? kDrawChunk * 1e6 / chunk_us : kNotMeasured,
               "1/s");
  ctx->layers.Set("fpras.draw_chunk_us.p50",
                  SupportedPercentile(stats.chunk_us, 0.50), "us");
  ctx->layers.Set("fpras.draw_chunk_us.p90",
                  SupportedPercentile(stats.chunk_us, 0.90), "us");
  ctx->layers.Set(
      "fpras.descent_hit_ratio",
      Ratio(stats.descent_hits, stats.descent_hits + stats.descent_misses),
      "1");
  ctx->layers.Set("fpras.memo_hit_ratio",
                  Ratio(stats.memo_hits, stats.memo_hits + stats.memo_misses),
                  "1");
}

void EngineProbes(const EngineSession& session, RunContext* ctx) {
  constexpr int kFrontiers = 256;
  constexpr int kCalls = 200000;
  const nfacount::UnrolledNfa& unrolled = session.engine().unrolled();
  const int states = session.nfa().num_states();
  const int horizon = session.horizon();
  nfacount::Rng rng =
      nfacount::Rng::ForSubstream(ctx->args.seed, 0x707265 /* "pre" */, 0);
  struct Frontier {
    nfacount::Bitset states;
    nfacount::Symbol symbol;
    int level;
  };
  // Seeded frontiers: the benchmark's use of util's Rng and Bitset.
  const std::vector<Frontier> frontiers = [&] {
    ScopedSpan span(ctx->span, Layer::kUtil, "util.rng_bitset_frontiers");
    std::vector<Frontier> out;
    for (int i = 0; i < kFrontiers; ++i) {
      Frontier f{nfacount::Bitset(static_cast<size_t>(states)), 0,
                 static_cast<int>(rng.UniformInt(1, horizon))};
      f.symbol = static_cast<nfacount::Symbol>(
          rng.UniformInt(0, session.nfa().alphabet_size() - 1));
      for (int q = 0; q < states; ++q) {
        if (unrolled.IsReachable(q, f.level) && rng.Bernoulli(0.5)) {
          f.states.Set(static_cast<size_t>(q));
        }
      }
      out.push_back(std::move(f));
    }
    return out;
  }();
  nfacount::Bitset out(static_cast<size_t>(states));
  const int64_t start = NowNs();
  {
    ScopedSpan span(ctx->span, Layer::kAutomata, "automata.predset_into");
    for (int call = 0; call < kCalls; ++call) {
      const Frontier& f = frontiers[static_cast<size_t>(call % kFrontiers)];
      unrolled.PredSetInto(f.states, f.symbol, f.level, &out);
    }
  }
  const double elapsed_ns = static_cast<double>(NowNs() - start);
  ctx->layers.Set("automata.predset_ns", elapsed_ns / kCalls, "ns");

  const nfacount::FprasDiagnostics d = session.diagnostics();
  ctx->layers.Set("fpras.table_bytes",
                  static_cast<double>(session.ApproxResidentBytes()), "bytes");
  ctx->layers.Set("fpras.arena_bytes",
                  static_cast<double>(d.arena_bytes_reserved), "bytes");
  ctx->layers.Set("fpras.descent_bytes", static_cast<double>(d.descent_bytes),
                  "bytes");
}

void CheckpointProbe(RunContext* ctx, Tally* tally) {
  const Nfa nfa = WriterNfa(WriterSeed(0));
  std::unique_ptr<EngineSession> session =
      CreateSession(nfa, kWriterHorizon, 0, 1, ctx, tally);
  if (session == nullptr) return;
  BuildSession(session.get(), false, ctx, tally);
  const std::string path = ctx->workdir + "/probe.ckpt";
  int64_t start = NowNs();
  {
    ScopedSpan span(ctx->span, Layer::kFpras, "fpras.save");
    tally->Check(session->Save(path).ok(), "checkpoint Save");
  }
  const double save_ms = SecondsSince(start) * 1e3;
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  start = NowNs();
  Result<EngineSession> loaded = [&] {
    ScopedSpan span(ctx->span, Layer::kFpras, "fpras.load");
    return EngineSession::Load(path);
  }();
  const double load_ms = SecondsSince(start) * 1e3;
  tally->Check(loaded.ok(), "checkpoint Load");
  if (loaded.ok()) {
    const Result<double> want = session->CountAtLength(kWriterHorizon);
    const Result<double> got = loaded.value().CountAtLength(kWriterHorizon);
    tally->Check(want.ok() && got.ok() && SameBits(want.value(), got.value()),
                 "checkpoint round trip changed the count");
  }
  ctx->layers.Set("fpras.checkpoint_save_ms", save_ms, "ms");
  ctx->layers.Set("fpras.checkpoint_load_ms", load_ms, "ms");
  ctx->layers.Set("fpras.checkpoint_bytes",
                  ec ? kNotMeasured : static_cast<double>(bytes), "bytes");
  std::filesystem::remove(path, ec);
}

WriterCycle RunWriterCycle(RegistryWriter target, int cycle, Tally* tally,
                           Tracer::Buffer* span) {
  return WriterCycleImpl(target, cycle, tally, span);
}

WriterCycle RunWriterCycle(ClientWriter target, int cycle, Tally* tally,
                           Tracer::Buffer* span) {
  return WriterCycleImpl(target, cycle, tally, span);
}

void VerifyWriterCycles(const std::vector<WriterCycle>& cycles,
                        Tally* tally) {
  // One reference per distinct registration seed, built in parallel.
  std::vector<int> seeds;
  for (const WriterCycle& c : cycles) {
    const int seed = WriterSeed(c.cycle);
    if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end()) {
      seeds.push_back(seed);
    }
  }
  std::vector<double> want(seeds.size(),
                           std::numeric_limits<double>::quiet_NaN());
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(seeds.size(), std::thread::hardware_concurrency()));
  std::vector<Tally> tallies(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < seeds.size(); i += workers) {
        const Nfa nfa = WriterNfa(seeds[i]);
        Result<EngineSession> ref = EngineSession::Create(
            nfa, kWriterHorizon,
            SessionOptions(static_cast<uint64_t>(seeds[i]), 1));
        tallies[w].Check(ref.ok(), "writer reference Create");
        if (!ref.ok()) continue;
        const Result<double> count = ref.value().CountAtLength(kWriterHorizon);
        if (count.ok()) want[i] = count.value();
        double rel_err = 0.0;
        CheckEstimates(ref.value(), nfa, &tallies[w], &rel_err, nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) tally->Merge(t);
  for (const WriterCycle& c : cycles) {
    const size_t i = static_cast<size_t>(
        std::find(seeds.begin(), seeds.end(), WriterSeed(c.cycle)) -
        seeds.begin());
    tally->Check(SameBits(c.count_before, want[i]) &&
                     SameBits(c.count_after, want[i]),
                 "writer cycle " + std::to_string(c.cycle) +
                     ": served count differs from the reference");
  }
}

void RecordWriterMetrics(const std::vector<WriterCycle>& cycles,
                         RunContext* ctx) {
  std::vector<double> totals;
  std::vector<double> steps[kNumWriterSteps];
  for (const WriterCycle& c : cycles) {
    if (!c.timed) continue;
    totals.push_back(c.total_ms);
    for (int s = 0; s < kNumWriterSteps; ++s) steps[s].push_back(c.step_ms[s]);
  }
  ctx->e2e.Set("write_p50_ms", Median(totals), "ms");
  PrintSamples("write_ms", totals);
  ctx->layers.Set("serve.writer_cycles", static_cast<double>(totals.size()),
                  "count");
  ctx->layers.Set("serve.writer_register_ms", Median(steps[kRegister]), "ms");
  ctx->layers.Set("serve.writer_extend_ms", Median(steps[kExtend]), "ms");
  ctx->layers.Set("serve.writer_evict_ms", Median(steps[kEvict]), "ms");
  ctx->layers.Set("serve.writer_revive_ms", Median(steps[kRevive]), "ms");
  ctx->layers.Set("serve.writer_unregister_ms", Median(steps[kUnregister]),
                  "ms");
}

}  // namespace perfbench
