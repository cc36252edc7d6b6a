#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "automata/io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/wire.hpp"

namespace perfbench {

namespace serve = nfacount::serve;
using nfacount::Result;
using nfacount::Status;

namespace {

/// Seed of the E3 automaton instance the repository's bench/ experiments use.
constexpr uint64_t kE3AutomatonSeed = 2024;
/// Seed of every workload session. It is fixed so that the engine work of a
/// run (table contents, rejection rates, build trials) is the same at every
/// --seed; --seed drives the request streams and probes. Across seeds the
/// session tables move a build by a few percent and draws/s by up to 2.7x.
constexpr uint64_t kSessionSeed = 0x5eedf00d;
/// A run repeats its phases in this many rounds and aggregates every
/// round's samples. Host contention on a shared machine comes and goes
/// within seconds, so samples spread over the whole run vary less from run
/// to run than the same number taken back to back.
constexpr int kRounds = 3;
/// Draw chunks, writer cycles and build-e3's in-process reads are short, so
/// they run in probes at three points of every round rather than in one
/// block: nine probes spread over the run. Each probe times this many
/// SampleWords(horizon, 1024) chunks (135 in a run, enough for ten beyond
/// the p90) and writer cycles.
constexpr int kProbes = 3 * kRounds;
constexpr int kDrawChunksPerProbe = 15;
constexpr int kWriterCyclesPerProbe = 2;
/// Requests replayed in-process for the registry and codec layer metrics.
constexpr int kReplayOps = 4000;
/// Latency at or above this is the Nagle + delayed-ACK stall signature.
constexpr double kStallUs = 30000.0;
constexpr double kFailedUs = std::numeric_limits<double>::infinity();

std::string MakeDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return path;
}

/// Checks that every per-length count of `session` is bit-identical to
/// `want`.
void CheckCounts(EngineSession* session, const std::vector<double>& want,
                 Tally* tally) {
  for (size_t length = 0; length < want.size(); ++length) {
    const Result<double> got =
        session->SharedCountAtLength(static_cast<int>(length));
    tally->Check(got.ok() && SameBits(got.value(), want[length]),
                 "count differs from the reference build");
  }
}

/// Per-length counts 0..horizon of a built session.
std::vector<double> Counts(EngineSession* session, Tally* tally) {
  std::vector<double> counts;
  for (int length = 0; length <= session->horizon(); ++length) {
    const Result<double> count = session->CountAtLength(length);
    tally->Check(count.ok(), "reference count");
    counts.push_back(count.ok() ? count.value()
                                : std::numeric_limits<double>::quiet_NaN());
  }
  return counts;
}

/// Timed read requests of one phase, kept exactly and in memory: every
/// request train (the requests a caller sends before it reads their
/// replies), and every single request when a train holds several. Failed
/// ones are at +inf.
struct ReadSamples {
  explicit ReadSamples(int64_t timed_from_ns = 0) : start_ns(timed_from_ns) {}

  int64_t start_ns;  ///< the phase's timed start (Completion::done_us = 0)
  std::vector<Completion> trains;
  std::vector<Completion> requests;  ///< only when trains hold several

  Completion At(int64_t done_ns, double us, bool is_sample) const {
    return Completion{static_cast<uint32_t>((done_ns - start_ns) / 1000),
                      static_cast<float>(us), is_sample};
  }
  /// Appends `other`, then releases it.
  void Absorb(ReadSamples* other) {
    trains.insert(trains.end(), other->trains.begin(), other->trains.end());
    requests.insert(requests.end(), other->requests.begin(),
                    other->requests.end());
    *other = ReadSamples(start_ns);
  }
  /// Per-request latencies of one kind (0 count, 1 sample, -1 every kind).
  std::vector<double> Latencies(int kind) const {
    const std::vector<Completion>& source =
        requests.empty() ? trains : requests;
    std::vector<double> out;
    for (const Completion& c : source) {
      if (kind < 0 || c.sample == (kind == 1)) out.push_back(c.us);
    }
    return out;
  }
};

/// The timed segments of a run as one phase: each segment's completions
/// follow the previous segment's last, so no window spans the untimed gap
/// between two segments. Releases the segments.
ReadSamples JoinSegments(std::vector<ReadSamples>* segments) {
  ReadSamples out;
  uint32_t offset_us = 0;
  for (ReadSamples& segment : *segments) {
    uint32_t last_us = 0;
    for (Completion c : segment.trains) {
      last_us = std::max(last_us, c.done_us);
      c.done_us += offset_us;
      out.trains.push_back(c);
    }
    out.requests.insert(out.requests.end(), segment.requests.begin(),
                        segment.requests.end());
    offset_us += last_us;
    segment = ReadSamples();
  }
  return out;
}

/// ops_per_s, p50_us and p99_us of a timed read phase (sorts the trains by
/// completion); prints the windows and the sample counts the percentiles
/// rest on.
void RecordReadMetrics(ReadSamples* reads, int requests_per_train,
                       bool busy_time, RunContext* ctx) {
  std::sort(reads->trains.begin(), reads->trains.end(),
            [](const Completion& a, const Completion& b) {
              return a.done_us < b.done_us;
            });
  const WindowedReads summary =
      SummarizeReads(reads->trains, requests_per_train, busy_time);
  ctx->e2e.Set("ops_per_s", summary.ops_per_s, "1/s");
  ctx->e2e.Set("p50_us", summary.p50_us, "us");
  ctx->e2e.Set("p99_us", summary.p99_us, "us");
  std::printf("reads (%s pass): %lld timed trains of %d in %zu windows\n",
              ctx->traced() ? "traced" : "untraced",
              static_cast<long long>(summary.samples), requests_per_train,
              summary.window_ops_per_s.size());
  for (size_t w = 0; w < summary.window_ops_per_s.size(); ++w) {
    std::printf("  window %zu: %.6g ops/s  p50 %.6g us  p99 %.6g us\n", w,
                summary.window_ops_per_s[w], summary.window_p50_us[w],
                summary.window_p99_us[w]);
  }
}

// ---------------------------------------------------------------------------
// build-e3
// ---------------------------------------------------------------------------

/// The in-process read path of build-e3: the serve read mix issued by one
/// caller straight against the session's shared-read surface, timed per
/// block of four (three counts and one draw of 16 words). A single count is
/// a ~70 ns lookup, too close to the clock's own cost to time alone. One
/// segment per probe, appended to `segments`.
constexpr int kTrain = 4;
void InProcessReads(EngineSession* session, const std::vector<double>& want,
                    RunContext* ctx, std::vector<ReadSamples>* segments) {
  Tally& tally = ctx->gate->Phase("reads");
  const int horizon = session->horizon();
  ReadMix mix(ctx->args.seed, segments->size(), horizon);
  ScopedSpan phase(ctx->span, Layer::kBench, "phase.reads");
  const int64_t timed_from =
      NowNs() + static_cast<int64_t>(ctx->Seconds(0.05) / kProbes * 1e9);
  const int64_t stop_at =
      timed_from + static_cast<int64_t>(ctx->Seconds(0.4) / kProbes * 1e9);
  segments->emplace_back(timed_from);
  ReadSamples& reads = segments->back();
  ReadOp ops[kTrain];
  double counts[kTrain] = {};
  std::vector<Word> words;
  // Drawn words are checked in batches: checking after every block would
  // evict the session's tables from cache before the next timed block.
  std::vector<Word> unchecked;
  for (int64_t request = 0; NowNs() < stop_at; request += kTrain) {
    for (ReadOp& op : ops) op = mix.Next();
    bool ok = true;
    const int64_t start = NowNs();
    for (int i = 0; i < kTrain; ++i) {
      if (ops[i].sample) {
        Result<std::vector<Word>> drawn = [&] {
          ScopedSpan span(ctx->span, Layer::kFpras,
                          "fpras.shared_sample_words", request + i);
          return session->SharedSampleWords(ops[i].length, kSampleWords);
        }();
        ok = ok && drawn.ok();
        if (drawn.ok()) words = std::move(drawn).value();
      } else {
        const Result<double> count = [&] {
          ScopedSpan span(ctx->span, Layer::kFpras, "fpras.shared_count",
                          request + i);
          return session->SharedCountAtLength(ops[i].length);
        }();
        ok = ok && count.ok();
        counts[i] = count.ok() ? count.value() : kFailedUs;
      }
    }
    const int64_t done = NowNs();
    for (int i = 0; i < kTrain; ++i) {
      if (ops[i].sample) {
        tally.Check(static_cast<int64_t>(words.size()) == kSampleWords,
                    "in-process sample");
        unchecked.insert(unchecked.end(), words.begin(), words.end());
      } else {
        const bool same = SameBits(counts[i],
                                   want[static_cast<size_t>(ops[i].length)]);
        ok = ok && same;
        tally.Check(same, "in-process count");
      }
    }
    if (start >= timed_from) {
      reads.trains.push_back(
          reads.At(done, ok ? (done - start) * 1e-3 : kFailedUs, false));
    }
    if (unchecked.size() >= 4096) {
      CheckWords(unchecked, horizon, session->nfa(), &tally);
      unchecked.clear();
    }
  }
  CheckWords(unchecked, horizon, session->nfa(), &tally);
}

void RunBuildE3(RunContext* ctx) {
  constexpr int kStates = 96;
  constexpr int kHorizon = 10;
  constexpr int kSetupRepsPerRound = 7;
  Gate& gate = *ctx->gate;
  Tally& setup = gate.Phase("setup");
  Tally& build = gate.Phase("build");

  std::vector<double> setup_s;
  std::vector<double> create_s;
  std::vector<double> build_s;
  std::vector<double> build_mt_s;
  nfacount::FprasDiagnostics built;
  std::vector<double> want;
  DrawStats draws;
  std::vector<ReadSamples> reads;
  std::vector<WriterCycle> cycles;
  // The writer cycle runs against an in-process registry (no socket).
  serve::RegistryOptions options;
  options.spill_dir = MakeDir(ctx->workdir + "/spill");
  serve::SessionRegistry registry(options);
  std::unique_ptr<EngineSession> single;
  // Draws and the read mix from the built 1-thread session, then writer
  // cycles; the first cycle of the run is an untimed warm-up.
  const auto probe = [&] {
    DrawChunks(single.get(), single->nfa(), kDrawChunksPerProbe, ctx,
               &gate.Phase("draws"), &draws);
    InProcessReads(single.get(), want, ctx, &reads);
    ScopedSpan phase(ctx->span, Layer::kBench, "phase.writer");
    WriterProbe(RegistryWriter{&registry}, static_cast<int>(cycles.size()),
                kWriterCyclesPerProbe, cycles.empty(), ctx,
                &gate.Phase("writer"), &cycles);
  };
  for (int round = 0; round < kRounds; ++round) {
    // Set-up, repeated: generate the automaton and create the session.
    {
      ScopedSpan phase(ctx->span, Layer::kBench, "phase.setup");
      for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
        single.reset();
        const int64_t start = NowNs();
        const Nfa nfa = [&] {
          ScopedSpan span(ctx->span, Layer::kAutomata, "automata.random_nfa");
          return E3Nfa(kStates, kE3AutomatonSeed);
        }();
        const int64_t create_start = NowNs();
        single = CreateSession(nfa, kHorizon, kSessionSeed, 1, ctx, &setup);
        create_s.push_back(SecondsSince(create_start));
        setup_s.push_back(SecondsSince(start));
      }
    }
    if (single == nullptr) return;

    {
      ScopedSpan phase(ctx->span, Layer::kBench, "phase.build_1t");
      build_s.push_back(BuildSession(single.get(), ctx->traced(), ctx, &build));
    }
    // Round 0's 1-thread session is the reference of every build: results
    // are bit-identical at every thread count and in every rebuild.
    if (round == 0) {
      built = single->diagnostics();
      want = Counts(single.get(), &build);
      CheckEstimates(*single, single->nfa(), &build, &ctx->rel_err,
                     ctx->span);
    }
    CheckCounts(single.get(), want, &build);
    probe();

    std::unique_ptr<EngineSession> multi =
        CreateSession(single->nfa(), kHorizon, kSessionSeed, 2, ctx, &build);
    if (multi == nullptr) return;
    {
      ScopedSpan phase(ctx->span, Layer::kBench, "phase.build_2t");
      build_mt_s.push_back(BuildSession(multi.get(), false, ctx, &build));
    }
    CheckCounts(multi.get(), want, &build);
    multi.reset();
    // Three probes a round, the last two back to back: a round has only
    // two long phases to put them between.
    probe();
    probe();
  }
  ctx->e2e.Set("setup_s", Median(setup_s), "s");
  ctx->layers.Set("fpras.create_s", Median(create_s), "s");
  ctx->e2e.Set("build_s", Median(build_s), "s");
  ctx->e2e.Set("build_mt_s", Median(build_mt_s), "s");
  PrintSamples("setup_s", setup_s);
  PrintSamples("build_s", build_s);
  PrintSamples("build_mt_s", build_mt_s);
  RecordBuildLayers(built, Median(build_s), ctx);
  ctx->layers.Set("util.pool_efficiency",
                  Median(build_s) / (2.0 * Median(build_mt_s)), "1");
  RecordDrawMetrics(draws, ctx);
  RecordWriterMetrics(cycles, ctx);
  ctx->layers.Set("serve.revives", static_cast<double>(registry.revives()),
                  "count");
  ctx->layers.Set("serve.demotions",
                  static_cast<double>(registry.demotions()), "count");

  if (ctx->traced()) {
    EngineProbes(*single, ctx);
    CheckpointProbe(ctx, &gate.Phase("checkpoint"));
  }
  ctx->e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  ReadSamples joined = JoinSegments(&reads);
  // One caller, so throughput is requests over the time spent inside them.
  RecordReadMetrics(&joined, kTrain, true, ctx);
  VerifyWriterCycles(cycles, &gate.Phase("writer"));
}

// ---------------------------------------------------------------------------
// serve-*
// ---------------------------------------------------------------------------

/// How a serve workload drives the daemon.
struct ServeShape {
  int readers = 4;           ///< closed-loop read connections
  int pipeline = 1;          ///< requests per train before reading replies
  bool writer_beside_reads = false;  ///< writer cycles during the read phase
  /// Share of --seconds the timed read phase lasts. serve-pipelined needs
  /// longer: at ~90 trains/s it takes 11 s to put ten trains beyond the p99.
  double timed_share = 0.5;
};

constexpr char kSession[] = "warm";

/// What one reader connection needs.
struct ReaderPlan {
  uint16_t port = 0;
  uint64_t seed = 0;
  int stream = 0;
  int horizon = 0;
  int pipeline = 1;
  int64_t timed_from = 0;
  int64_t stop_at = 0;
  const std::vector<double>* want = nullptr;
  const Nfa* nfa = nullptr;
  Tracer::Buffer* span = nullptr;
};

Result<std::vector<Word>> DecodeSampleReply(const std::string& body) {
  nfacount::ByteReader r(body.data(), body.size());
  int64_t cursor = 0;
  uint64_t n = 0;
  NFA_RETURN_NOT_OK(r.I64(&cursor));
  NFA_RETURN_NOT_OK(r.U64(&n));
  if (n > static_cast<uint64_t>(kSampleWords)) {
    return Status::DataLoss("sample reply: word count");
  }
  std::vector<Word> words(static_cast<size_t>(n));
  for (Word& word : words) NFA_RETURN_NOT_OK(serve::ReadWord(&r, &word));
  return words;
}

/// One closed-loop reader connection: sends a train of `pipeline` requests
/// from the read mix, reads the replies in order, checks each, repeats until
/// `stop_at`. Requests sent from `timed_from` on are timed.
void ReaderLoop(const ReaderPlan& plan, Tally* tally, ReadSamples* out) {
  Result<serve::ServeClient> connected = serve::ServeClient::Connect(plan.port);
  tally->Check(connected.ok(), "reader connect");
  if (!connected.ok()) return;
  serve::ServeClient client = std::move(connected).value();
  ReadMix mix(plan.seed, static_cast<uint64_t>(plan.stream), plan.horizon);

  std::vector<ReadOp> train(static_cast<size_t>(plan.pipeline));
  std::vector<int64_t> sent(train.size());
  // Room for 100k requests/s per connection, so the vectors never regrow
  // (untouched capacity costs no resident memory).
  const size_t capacity = static_cast<size_t>(
      static_cast<double>(plan.stop_at - plan.timed_from) * 1e-4);
  out->trains.reserve(capacity / train.size());
  if (train.size() > 1) out->requests.reserve(capacity);
  int64_t request = static_cast<int64_t>(plan.stream) << 32;
  ScopedSpan root(plan.span, Layer::kBench, "phase.reader");
  bool broken = false;
  while (!broken && NowNs() < plan.stop_at) {
    for (ReadOp& op : train) op = mix.Next();
    const char* name = plan.pipeline > 1 ? "serve.client.train"
                       : train[0].sample ? "serve.client.sample"
                                         : "serve.client.count";
    ScopedSpan span(plan.span, Layer::kServe, name, request);
    size_t sent_count = 0;
    for (size_t i = 0; i < train.size(); ++i) {
      sent[i] = NowNs();
      Status status;
      if (train[i].sample) {
        serve::SampleRequest req;
        req.name = kSession;
        req.length = train[i].length;
        req.count = kSampleWords;
        status = client.SendRequest(serve::MsgType::kSample,
                                    serve::EncodeSample(req));
      } else {
        status = client.SendCount(kSession, train[i].length);
      }
      if (!status.ok()) break;
      ++sent_count;
    }
    // A failed request ends the connection: its reply stream may be out of
    // step. Requests of the train not answered count as failed.
    for (size_t i = 0; i < train.size(); ++i) {
      bool ok = false;
      std::vector<Word> words;
      if (!broken && i < sent_count) {
        if (train[i].sample) {
          const Result<std::string> body = client.ReadReplyBody();
          Result<std::vector<Word>> decoded =
              body.ok() ? DecodeSampleReply(body.value())
                        : Result<std::vector<Word>>(body.status());
          ok = decoded.ok() && static_cast<int64_t>(decoded.value().size()) ==
                                   kSampleWords;
          if (ok) words = std::move(decoded).value();
        } else {
          const Result<double> count = client.ReadCountReply();
          ok = count.ok() &&
               SameBits(count.value(),
                        (*plan.want)[static_cast<size_t>(train[i].length)]);
        }
      }
      const int64_t done = NowNs();
      if (!ok) broken = true;
      if (sent[0] >= plan.timed_from) {
        if (train.size() > 1) {
          out->requests.push_back(out->At(
              done, ok ? (done - sent[i]) * 1e-3 : kFailedUs, train[i].sample));
        }
        if (i + 1 == train.size()) {
          out->trains.push_back(
              out->At(done, broken ? kFailedUs : (done - sent[0]) * 1e-3,
                      train.size() == 1 && train[0].sample));
        }
      }
      tally->Check(ok, train[i].sample ? "served sample" : "served count");
      if (!words.empty()) {
        CheckWords(words, train[i].length, *plan.nfa, tally);
      }
    }
    request += plan.pipeline;
  }
}

/// Writer cycles `first`, `first` + 1, ... over one connection until
/// `stop_at`; a cycle is timed when it runs entirely inside
/// [timed_from, stop_at].
void WriterLoop(uint16_t port, int first, int64_t timed_from, int64_t stop_at,
                Tracer::Buffer* span, Tally* tally,
                std::vector<WriterCycle>* cycles) {
  Result<serve::ServeClient> connected = serve::ServeClient::Connect(port);
  tally->Check(connected.ok(), "writer connect");
  if (!connected.ok()) return;
  serve::ServeClient client = std::move(connected).value();
  for (int cycle = first; NowNs() < stop_at; ++cycle) {
    const int64_t start = NowNs();
    cycles->push_back(RunWriterCycle(ClientWriter{&client}, cycle, tally,
                                     span));
    cycles->back().timed = start >= timed_from && NowNs() <= stop_at;
  }
}

/// The number at "key" in a stats document, after descending into the
/// nested objects named by `path` (or -1 when absent).
double StatAt(const std::string& json, const std::vector<std::string>& path,
              const std::string& key) {
  size_t at = 0;
  for (const std::string& section : path) {
    at = json.find("\"" + section + "\":{", at);
    if (at == std::string::npos) return kNotMeasured;
  }
  at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) return kNotMeasured;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

/// Registry replay and codec timing of the read mix (traced pass only): the
/// pieces of a served request that are not transport.
void ReplayLayers(serve::SessionRegistry* registry, EngineSession* reference,
                  const std::vector<double>& want, double client_p50_us,
                  RunContext* ctx) {
  Tally& tally = ctx->gate->Phase("replay");
  const int horizon = reference->horizon();
  std::vector<double> count_us;
  std::vector<double> sample_us;
  std::vector<double> all_us;
  {
    ScopedSpan phase(ctx->span, Layer::kBench, "phase.replay");
    ReadMix mix(ctx->args.seed, 1000, horizon);
    for (int i = 0; i < kReplayOps; ++i) {
      const ReadOp op = mix.Next();
      const int64_t start = NowNs();
      bool ok = false;
      if (op.sample) {
        const Result<std::vector<Word>> words = [&] {
          ScopedSpan span(ctx->span, Layer::kServe, "serve.registry.sample", i);
          return registry->SampleWords(kSession, op.length, kSampleWords);
        }();
        ok = words.ok();
        sample_us.push_back((NowNs() - start) * 1e-3);
        all_us.push_back(sample_us.back());
        if (ok) CheckWords(words.value(), op.length, reference->nfa(), &tally);
      } else {
        const Result<double> count = [&] {
          ScopedSpan span(ctx->span, Layer::kServe, "serve.registry.count", i);
          return registry->CountAtLength(kSession, op.length);
        }();
        ok = count.ok() &&
             SameBits(count.value(), want[static_cast<size_t>(op.length)]);
        count_us.push_back((NowNs() - start) * 1e-3);
        all_us.push_back(count_us.back());
      }
      tally.Check(ok, "registry replay");
    }
  }
  ctx->layers.Set("serve.registry_count_us.p50",
                  SupportedPercentile(count_us, 0.5), "us");
  ctx->layers.Set("serve.registry_sample_us.p50",
                  SupportedPercentile(sample_us, 0.5), "us");

  // Codec: encode and decode each request and its reply, frame included.
  const Result<std::vector<Word>> words =
      reference->SampleWords(horizon, kSampleWords);
  tally.Check(words.ok(), "codec sample words");
  if (!words.ok()) return;
  ReadMix mix(ctx->args.seed, 1001, horizon);
  int64_t decoded_ok = 0;
  const int64_t start = NowNs();
  {
    ScopedSpan span(ctx->span, Layer::kServe, "serve.protocol.codec");
    for (int i = 0; i < kReplayOps; ++i) {
      const ReadOp op = mix.Next();
      nfacount::ByteWriter reply;
      serve::WriteReplyStatus(Status::Ok(), &reply);
      std::string request;
      serve::MsgType type = serve::MsgType::kCount;
      if (op.sample) {
        type = serve::MsgType::kSample;
        serve::SampleRequest req;
        req.name = kSession;
        req.length = op.length;
        req.count = kSampleWords;
        request = serve::EncodeSample(req);
        decoded_ok += serve::DecodeSample(request).ok() ? 1 : 0;
        reply.I64(0);
        reply.U64(words.value().size());
        for (const Word& word : words.value()) serve::WriteWord(word, &reply);
      } else {
        serve::CountRequest req;
        req.name = kSession;
        req.length = op.length;
        request = serve::EncodeCount(req);
        decoded_ok += serve::DecodeCount(request).ok() ? 1 : 0;
        reply.F64(want[static_cast<size_t>(op.length)]);
      }
      for (const std::string* payload : {&request, &reply.buffer()}) {
        const Result<std::string> frame = serve::EncodeFrame(type, *payload);
        serve::MsgType got = serve::MsgType::kReply;
        uint32_t length = 0;
        decoded_ok += frame.ok() && serve::DecodeFrameHeader(
                                        frame.value().data(),
                                        frame.value().size(), &got, &length)
                                        .ok()
                          ? 1
                          : 0;
      }
      nfacount::ByteReader r(reply.buffer().data(), reply.buffer().size());
      Status status;
      decoded_ok += serve::ReadReplyStatus(&r, &status).ok() ? 1 : 0;
      if (op.sample) {
        int64_t cursor = 0;
        uint64_t n = 0;
        bool ok = r.I64(&cursor).ok() && r.U64(&n).ok();
        Word word;
        for (uint64_t w = 0; ok && w < n; ++w) {
          ok = serve::ReadWord(&r, &word).ok();
        }
        decoded_ok += ok ? 1 : 0;
      } else {
        double value = 0.0;
        decoded_ok += r.F64(&value).ok() ? 1 : 0;
      }
    }
  }
  const double codec_ns =
      static_cast<double>(NowNs() - start) / static_cast<double>(kReplayOps);
  tally.Check(decoded_ok == 5 * kReplayOps, "codec round trip");
  ctx->layers.Set("serve.codec_ns", codec_ns, "ns");
  ctx->layers.Set("serve.transport_us.p50",
                  client_p50_us - SupportedPercentile(all_us, 0.5) -
                      codec_ns * 1e-3,
                  "us");
}

/// Timed read segments of a serve run: two per round.
constexpr int kServeSegments = 2 * kRounds;

/// One timed read segment: `shape.readers` closed-loop connections (and the
/// writer beside them on serve-mixed), untimed for the segment's share of
/// 0.1·seconds, then timed for its share of the read phase. Appends the
/// segment's timings to `segments` and its writer cycles to `cycles`.
void ReadSegment(const ServeShape& shape, uint16_t port, int segment,
                 const std::vector<double>& want, const Nfa& nfa,
                 RunContext* ctx, std::vector<ReadSamples>* segments,
                 std::vector<WriterCycle>* cycles) {
  const int64_t timed_from =
      NowNs() +
      static_cast<int64_t>(ctx->Seconds(0.1) / kServeSegments * 1e9);
  const int64_t stop_at =
      timed_from + static_cast<int64_t>(
                       ctx->Seconds(shape.timed_share) / kServeSegments * 1e9);
  std::vector<Tally> reader_tallies(static_cast<size_t>(shape.readers));
  std::vector<ReadSamples> reader_samples(reader_tallies.size(),
                                          ReadSamples(timed_from));
  std::vector<WriterCycle> segment_cycles;
  Tally writer_tally;
  {
    ScopedSpan phase(ctx->span, Layer::kBench, "phase.reads");
    std::vector<std::thread> threads;
    for (int r = 0; r < shape.readers; ++r) {
      ReaderPlan plan;
      plan.port = port;
      plan.seed = ctx->args.seed;
      plan.stream = segment * shape.readers + r;
      plan.horizon = static_cast<int>(want.size()) - 1;
      plan.pipeline = shape.pipeline;
      plan.timed_from = timed_from;
      plan.stop_at = stop_at;
      plan.want = &want;
      plan.nfa = &nfa;
      plan.span = ctx->NewBuffer();
      threads.emplace_back(ReaderLoop, plan,
                           &reader_tallies[static_cast<size_t>(r)],
                           &reader_samples[static_cast<size_t>(r)]);
    }
    if (shape.writer_beside_reads) {
      threads.emplace_back(WriterLoop, port, static_cast<int>(cycles->size()),
                           timed_from, stop_at, ctx->NewBuffer(),
                           &writer_tally, &segment_cycles);
    }
    for (std::thread& t : threads) t.join();
  }
  Tally& reads_tally = ctx->gate->Phase("reads");
  for (const Tally& t : reader_tallies) reads_tally.Merge(t);
  ctx->gate->Phase("writer").Merge(writer_tally);
  cycles->insert(cycles->end(), segment_cycles.begin(), segment_cycles.end());
  // Reader 0's vectors have room for every reader's timings.
  segments->push_back(std::move(reader_samples[0]));
  for (size_t r = 1; r < reader_samples.size(); ++r) {
    segments->back().Absorb(&reader_samples[r]);
  }
}

void RunServe(const ServeShape& shape, RunContext* ctx) {
  constexpr int kStates = 64;
  constexpr int kHorizon = 8;
  // The 2-thread build is the serve workloads' noisiest engine figure.
  constexpr int kBuildRepsPerRound = 2;
  Gate& gate = *ctx->gate;
  Tally& setup = gate.Phase("setup");
  Tally& build = gate.Phase("build");

  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> build_mt_s;
  std::vector<double> create_s;
  std::unique_ptr<serve::SessionRegistry> served;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::unique_ptr<EngineSession> reference;
  std::vector<double> want;
  DrawStats draws;
  std::vector<ReadSamples> reads;
  std::vector<WriterCycle> cycles;
  // Draws from the reference, then (without a writer beside the readers)
  // writer cycles on the otherwise idle daemon: the writes-without-reads
  // baseline of serve-mixed. The first cycle of the run is an untimed
  // warm-up.
  const auto probe = [&] {
    DrawChunks(reference.get(), reference->nfa(), kDrawChunksPerProbe, ctx,
               &gate.Phase("draws"), &draws);
    if (shape.writer_beside_reads) return;
    ScopedSpan phase(ctx->span, Layer::kBench, "phase.writer");
    Tally& writer = gate.Phase("writer");
    Result<serve::ServeClient> client =
        serve::ServeClient::Connect(daemon->port());
    writer.Check(client.ok(), "writer connect");
    if (client.ok()) {
      WriterProbe(ClientWriter{&client.value()},
                  static_cast<int>(cycles.size()), kWriterCyclesPerProbe,
                  cycles.empty(), ctx, &writer, &cycles);
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    // Set-up: generate the automaton, create a registry, register the
    // session and warm it to the horizon. The warm-up is the daemon's
    // 1-thread build: build_s. Round 0's registry is the one served.
    std::unique_ptr<serve::SessionRegistry> registry;
    std::string text;
    {
      ScopedSpan phase(ctx->span, Layer::kBench, "phase.setup");
      const std::string spill =
          MakeDir(ctx->workdir + "/spill-" + std::to_string(round));
      const int64_t start = NowNs();
      text = [&] {
        ScopedSpan span(ctx->span, Layer::kAutomata, "automata.random_nfa");
        return nfacount::NfaToText(E3Nfa(kStates, kE3AutomatonSeed));
      }();
      serve::RegistryOptions options;
      options.spill_dir = spill;
      registry = std::make_unique<serve::SessionRegistry>(options);
      {
        ScopedSpan span(ctx->span, Layer::kServe, "serve.register");
        const Status registered = registry->Register(
            kSession, text, kHorizon, kSessionSeed, 0.3, 0.2);
        setup.Check(registered.ok(), "register: " + registered.ToString());
      }
      const int64_t extend_start = NowNs();
      {
        ScopedSpan span(ctx->span, Layer::kServe, "serve.extend");
        const Result<int> extended = registry->ExtendTo(kSession, kHorizon);
        setup.Check(extended.ok() && extended.value() == kHorizon,
                    "warm ExtendTo(horizon)");
      }
      build_s.push_back(SecondsSince(extend_start));
      setup_s.push_back(SecondsSince(start));
    }
    if (round == 0) {
      served = std::move(registry);
      serve::ServerOptions server_options;
      server_options.workers = 2;
      daemon = std::make_unique<serve::ServeDaemon>(served.get(),
                                                    server_options);
      const Status started = daemon->Start();
      setup.Check(started.ok(), "daemon start: " + started.ToString());
      if (!started.ok()) return;
    }
    registry.reset();

    // The in-process reference: the registration tuple rebuilt at 2
    // threads (bit-identical to the daemon's 1-thread build): build_mt_s.
    const Result<Nfa> parsed = nfacount::ParseNfaText(text);
    build.Check(parsed.ok(), "parse registration automaton");
    if (!parsed.ok()) return;
    for (int rep = 0; rep < kBuildRepsPerRound; ++rep) {
      ScopedSpan phase(ctx->span, Layer::kBench, "phase.build_2t");
      reference.reset();
      const int64_t create_start = NowNs();
      reference = CreateSession(parsed.value(), kHorizon, kSessionSeed, 2, ctx,
                                &build);
      create_s.push_back(SecondsSince(create_start));
      if (reference == nullptr) return;
      build_mt_s.push_back(BuildSession(reference.get(), false, ctx, &build));
    }
    if (round == 0) {
      want = Counts(reference.get(), &build);
      CheckEstimates(*reference, reference->nfa(), &build, &ctx->rel_err,
                     ctx->span);
      if (ctx->traced()) {
        // Per-level times and exact counters come from a 1-thread build.
        ScopedSpan phase(ctx->span, Layer::kBench, "phase.build_1t");
        std::unique_ptr<EngineSession> single = CreateSession(
            parsed.value(), kHorizon, kSessionSeed, 1, ctx, &build);
        if (single == nullptr) return;
        const double seconds = BuildSession(single.get(), true, ctx, &build);
        RecordBuildLayers(single->diagnostics(), seconds, ctx);
      }
    }
    CheckCounts(reference.get(), want, &build);
    probe();
    for (int half = 0; half < 2; ++half) {
      ReadSegment(shape, daemon->port(), 2 * round + half, want,
                  reference->nfa(), ctx, &reads, &cycles);
      probe();
    }
  }
  ctx->e2e.Set("setup_s", Median(setup_s), "s");
  ctx->e2e.Set("build_s", Median(build_s), "s");
  ctx->e2e.Set("build_mt_s", Median(build_mt_s), "s");
  PrintSamples("setup_s", setup_s);
  PrintSamples("build_s", build_s);
  PrintSamples("build_mt_s", build_mt_s);
  if (ctx->traced()) {
    ctx->layers.Set("fpras.create_s", Median(create_s), "s");
    ctx->layers.Set("util.pool_efficiency",
                    Median(build_s) / (2.0 * Median(build_mt_s)), "1");
  }
  RecordDrawMetrics(draws, ctx);
  RecordWriterMetrics(cycles, ctx);

  const std::string stats = daemon->StatsJson();
  ctx->layers.Set("serve.queue_wait_us.p50",
                  StatAt(stats, {"op_count", "queue_wait"}, "p50_us"), "us");
  ctx->layers.Set("serve.queue_wait_us.p99",
                  StatAt(stats, {"op_count", "queue_wait"}, "p99_us"), "us");
  ctx->layers.Set("serve.service_us.p99", StatAt(stats, {"op_count"}, "p99_us"),
                  "us");
  const double served_requests = StatAt(stats, {}, "requests");
  ctx->layers.Set(
      "serve.bytes_per_op",
      served_requests > 0.0 ? static_cast<double>(daemon->bytes_in() +
                                                  daemon->bytes_out()) /
                                  served_requests
                            : kNotMeasured,
      "bytes");
  ctx->layers.Set("serve.revives", static_cast<double>(served->revives()),
                  "count");
  ctx->layers.Set("serve.demotions",
                  static_cast<double>(served->demotions()), "count");

  if (ctx->traced()) {
    std::vector<double> all;
    for (const ReadSamples& r : reads) {
      const std::vector<double> part = r.Latencies(-1);
      all.insert(all.end(), part.begin(), part.end());
    }
    ReplayLayers(served.get(), reference.get(), want,
                 SupportedPercentile(std::move(all), 0.5), ctx);
    EngineProbes(*reference, ctx);
    CheckpointProbe(ctx, &gate.Phase("checkpoint"));
  }
  daemon->Stop();
  // Before the benchmark's own analysis of the timings.
  ctx->e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  ReadSamples joined = JoinSegments(&reads);
  ctx->layers.Set("serve.count_us.p50",
                  SupportedPercentile(joined.Latencies(0), 0.50), "us");
  ctx->layers.Set("serve.count_us.p99",
                  SupportedPercentile(joined.Latencies(0), 0.99), "us");
  ctx->layers.Set("serve.sample_us.p50",
                  SupportedPercentile(joined.Latencies(1), 0.50), "us");
  ctx->layers.Set("serve.sample_us.p99",
                  SupportedPercentile(joined.Latencies(1), 0.99), "us");
  const std::vector<double> all = joined.Latencies(-1);
  const int64_t stalls = std::count_if(
      all.begin(), all.end(), [](double us) { return us >= kStallUs; });
  ctx->layers.Set("serve.stall_ratio",
                  all.empty() ? kNotMeasured
                              : static_cast<double>(stalls) /
                                    static_cast<double>(all.size()),
                  "1");
  RecordReadMetrics(&joined, shape.pipeline, false, ctx);
  VerifyWriterCycles(cycles, &gate.Phase("writer"));
}

}  // namespace

bool RunWorkload(const std::string& name, RunContext* ctx) {
  if (name == "build-e3") {
    RunBuildE3(ctx);
  } else if (name == "serve-warm") {
    RunServe(ServeShape{4, 1, false, 0.5}, ctx);
  } else if (name == "serve-pipelined") {
    RunServe(ServeShape{4, 4, false, 0.8}, ctx);
  } else if (name == "serve-mixed") {
    RunServe(ServeShape{3, 1, true, 0.5}, ctx);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
