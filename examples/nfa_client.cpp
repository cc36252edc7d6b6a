// nfa_client — command-line client for the nfa_serve daemon.
//
// Usage (every command takes --port <p>; --retries <n> bounds the
// connect/shed retry loop, default 5, 1 = no retry):
//   nfa_client ping        --port <p>
//   nfa_client register    --port <p> <name> <file.nfa|-> <horizon>
//                          [eps] [delta] [seed]
//   nfa_client count       --port <p> <name> <length>
//   nfa_client count-state --port <p> <name> <q> <length>
//   nfa_client sample      --port <p> <name> <length> <count>
//   nfa_client extend      --port <p> <name> <level>
//   nfa_client evict       --port <p> <name>
//   nfa_client unregister  --port <p> <name>
//   nfa_client stats       --port <p> [--pretty]
//   nfa_client shutdown    --port <p>
//   nfa_client bench       --port <p> <name> <length>
//                          [--requests <n>] [--concurrency <c>]
//                          [--pipeline <d>]
//
// `stats --pretty` renders the daemon's JSON as a per-operation table
// (requests, errors, service p50/p90/p99, queue-wait p50) instead of the
// raw document.
//
// `bench` is a closed-loop load generator against an already-registered
// session: `--concurrency <c>` connections each issue count requests with
// `--pipeline <d>` requests on the wire per connection (a sliding window —
// one reply read per new request sent), `--requests <n>` total across all
// connections. Prints achieved qps and client-observed per-request latency
// percentiles. All replies are checked against each other: a mismatch is a
// determinism bug and exits 1.
//
// Every number on the command line is parsed strictly (examples/
// cli_args.hpp): --port is 1..65535, lengths, levels, states and counts are
// non-negative integers in range, eps is > 0, delta is in (0, 1), the seed
// is an unsigned 64-bit integer.
//
// Exit codes distinguish failure classes for scripting:
//   0  success
//   1  the daemon answered with an error (or the connection died mid-op)
//   2  usage error, including a malformed number
//   3  could not reach the daemon (connect refused / shed until retries
//      were exhausted)
// Errors print the status as "CODE: message" on stderr.
//
// `count` prints the estimate as "%.6g\n" — the same format as
// `nfa_cli count` — so serve-mode answers diff byte-identical against the
// single-process CLI at the same seed (the CI serve-smoke job relies on
// this). `sample` prints one word per line in the nfa_cli sample format.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.hpp"
#include "cli_args.hpp"
#include "serve/client.hpp"
#include "util/metrics.hpp"

namespace {

using nfacount::Result;
using nfacount::Status;
using nfacount::Word;
using nfacount::serve::RegisterRequest;
using nfacount::serve::RetryPolicy;
using nfacount::serve::SampleResult;
using nfacount::serve::ServeClient;
using cli_args::kMaxLength;
using cli_args::ParseInt;

int Usage() {
  std::fprintf(
      stderr,
      "usage: nfa_client <command> --port <p> [--retries <n>] [args]\n"
      "  ping\n"
      "  register    <name> <file.nfa|-> <horizon> [eps] [delta] [seed]\n"
      "  count       <name> <length>\n"
      "  count-state <name> <q> <length>\n"
      "  sample      <name> <length> <count>\n"
      "  extend      <name> <level>\n"
      "  evict       <name>\n"
      "  unregister  <name>\n"
      "  stats       [--pretty]\n"
      "  shutdown\n"
      "  bench       <name> <length> [--requests <n>] [--concurrency <c>]\n"
      "              [--pipeline <d>]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailConnect(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 3;
}

/// Finds `"key":` in json[from, to) and parses the number after it; `fallback`
/// when absent. A string scan, not a parser — fine for the daemon's stats
/// document, whose keys never appear inside string values.
long long ScanInt(const std::string& json, size_t from, size_t to,
                  const std::string& key, long long fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos || at >= to) return fallback;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Renders the stats JSON as a per-operation table: requests, errors,
/// service-latency p50/p90/p99, and queue-wait p50 (how long decoded
/// requests sat waiting for a worker — 0 in the legacy runtime).
void PrintPrettyStats(const std::string& json) {
  const long long requests = ScanInt(json, 0, json.size(), "requests", 0);
  std::printf("requests %lld  qps %lld  active_connections %lld\n", requests,
              ScanInt(json, 0, json.size(), "qps", 0),
              ScanInt(json, 0, json.size(), "active_connections", 0));
  std::printf("queue_depth %lld  bytes_in %lld  bytes_out %lld\n",
              ScanInt(json, 0, json.size(), "queue_depth", 0),
              ScanInt(json, 0, json.size(), "bytes_in", 0),
              ScanInt(json, 0, json.size(), "bytes_out", 0));
  std::printf("%-12s %9s %7s %8s %8s %8s %10s\n", "op", "requests", "errors",
              "p50_us", "p90_us", "p99_us", "qwait_p50");
  size_t scan = 0;
  while (true) {
    const size_t at = json.find("\"op_", scan);
    if (at == std::string::npos) break;
    const size_t name_end = json.find('"', at + 1);
    if (name_end == std::string::npos) break;
    const std::string name = json.substr(at + 4, name_end - (at + 4));
    // The op block nests one level (queue_wait); walk braces to its end.
    size_t open = json.find('{', name_end);
    if (open == std::string::npos) break;
    int depth = 0;
    size_t end = open;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}' && --depth == 0) break;
    }
    const size_t wait = json.find("\"queue_wait\":", open);
    const size_t svc_end = (wait != std::string::npos && wait < end) ? wait : end;
    std::printf("%-12s %9lld %7lld %8lld %8lld %8lld %10lld\n", name.c_str(),
                ScanInt(json, open, svc_end, "requests", 0),
                ScanInt(json, open, svc_end, "errors", 0),
                ScanInt(json, open, svc_end, "p50_us", 0),
                ScanInt(json, open, svc_end, "p90_us", 0),
                ScanInt(json, open, svc_end, "p99_us", 0),
                wait != std::string::npos && wait < end
                    ? ScanInt(json, wait, end, "p50_us", 0)
                    : 0);
    scan = end;
  }
}

/// One bench connection's closed loop: keep `pipeline` count requests on the
/// wire, read replies in order, record per-request latency. Replies are
/// cross-checked for bit-identity (same session + length must answer the
/// same estimate no matter which worker serves it).
void BenchWorker(uint16_t port, const RetryPolicy& retry,
                 const std::string& name, int length, long long requests,
                 int pipeline, nfacount::LatencyHistogram* latency,
                 std::atomic<long long>* errors,
                 std::atomic<bool>* mismatch, std::atomic<double>* expect) {
  Result<ServeClient> connected = ServeClient::ConnectWithRetry(port, retry);
  if (!connected.ok()) {
    errors->fetch_add(requests, std::memory_order_relaxed);
    return;
  }
  ServeClient client = std::move(connected).value();
  using Clock = std::chrono::steady_clock;
  std::deque<Clock::time_point> sent;
  long long to_send = requests;
  long long to_read = requests;
  while (to_read > 0) {
    while (to_send > 0 &&
           sent.size() < static_cast<size_t>(std::max(1, pipeline))) {
      if (!client.SendCount(name, length).ok()) {
        errors->fetch_add(to_read, std::memory_order_relaxed);
        return;
      }
      sent.push_back(Clock::now());
      --to_send;
    }
    Result<double> estimate = client.ReadCountReply();
    const Clock::time_point t0 = sent.front();
    sent.pop_front();
    latency->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
            .count());
    --to_read;
    if (!estimate.ok()) {
      errors->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // First OK reply anywhere publishes the expected estimate; every later
    // reply must match it exactly.
    double want = expect->load(std::memory_order_relaxed);
    if (want != want) {  // still NaN: try to claim it
      double nan = want;
      if (!expect->compare_exchange_strong(nan, estimate.value(),
                                           std::memory_order_relaxed)) {
        want = expect->load(std::memory_order_relaxed);
      } else {
        want = estimate.value();
      }
    }
    if (want == want && estimate.value() != want) {
      mismatch->store(true, std::memory_order_relaxed);
    }
  }
}

/// Reads an automaton text from a file path, or stdin for "-".
Result<std::string> ReadNfaText(const std::string& path) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open automaton file " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  // Pull the flags out; everything else stays positional.
  uint16_t port = 0;
  RetryPolicy retry;
  long long bench_requests = 1000;
  int bench_concurrency = 1;
  int bench_pipeline = 1;
  bool pretty = false;
  std::vector<std::string> args;
  int port_arg = 0;
  for (int i = 2; i < argc; ++i) {
    // A flag's value: the next argument, strictly in [lo, hi].
    auto int_flag = [&](int64_t lo, int64_t hi, auto* out) {
      if (i + 1 >= argc || !ParseInt(argv[i], argv[i + 1], lo, hi, out)) {
        return false;
      }
      ++i;
      return true;
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      if (!int_flag(1, 65535, &port_arg)) return Usage();
      port = static_cast<uint16_t>(port_arg);
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (!int_flag(1, INT_MAX, &retry.max_attempts)) return Usage();
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      int64_t requests = 0;
      if (!int_flag(1, INT64_MAX, &requests)) return Usage();
      bench_requests = requests;
    } else if (std::strcmp(argv[i], "--concurrency") == 0) {
      // One thread per connection: bounded like the daemon's worker count.
      if (!int_flag(1, 4096, &bench_concurrency)) return Usage();
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      if (!int_flag(1, INT_MAX, &bench_pipeline)) return Usage();
    } else if (std::strcmp(argv[i], "--pretty") == 0) {
      pretty = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (port == 0) return Usage();

  // Every positional number is checked before the daemon is dialed.
  RegisterRequest reg;
  int length = 0;  // count, bench and sample length; extend level
  int state = 0;
  int64_t draw_count = 0;
  bool args_ok = true;
  if (command == "register") {
    args_ok = args.size() >= 3 &&
              ParseInt("horizon", args[2], 0, kMaxLength, &reg.horizon) &&
              cli_args::ParseAccuracyArgs(args, 3, &reg.eps, &reg.delta,
                                          &reg.seed);
  } else if (command == "count" || command == "bench") {
    args_ok = args.size() == 2 &&
              ParseInt("length", args[1], 0, kMaxLength, &length);
  } else if (command == "extend") {
    args_ok = args.size() == 2 &&
              ParseInt("level", args[1], 0, kMaxLength, &length);
  } else if (command == "count-state") {
    args_ok = args.size() == 3 &&
              ParseInt("state", args[1], 0, INT32_MAX, &state) &&
              ParseInt("length", args[2], 0, kMaxLength, &length);
  } else if (command == "sample") {
    args_ok = args.size() == 3 &&
              ParseInt("length", args[1], 0, kMaxLength, &length) &&
              ParseInt("count", args[2], 0, INT64_MAX, &draw_count);
  }
  if (!args_ok) return Usage();

  if (command == "bench") {
    // Load generator: every connection is opened by its own thread, so the
    // shared pre-connected client below is skipped entirely.
    const std::string name = args[0];
    nfacount::LatencyHistogram latency;
    std::atomic<long long> errors{0};
    std::atomic<bool> mismatch{false};
    std::atomic<double> expect{std::numeric_limits<double>::quiet_NaN()};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(bench_concurrency));
    for (int c = 0; c < bench_concurrency; ++c) {
      // Split the request budget evenly; the first connections absorb the
      // remainder.
      const long long share = bench_requests / bench_concurrency +
                              (c < bench_requests % bench_concurrency ? 1 : 0);
      if (share == 0) continue;
      threads.emplace_back(BenchWorker, port, retry, name, length, share,
                           bench_pipeline, &latency, &errors, &mismatch,
                           &expect);
    }
    for (std::thread& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const long long failed = errors.load();
    std::printf("bench: %lld requests, %d connections, pipeline %d\n",
                bench_requests, bench_concurrency, bench_pipeline);
    std::printf("qps %.1f  ok %lld  errors %lld\n",
                secs > 0 ? static_cast<double>(bench_requests) / secs : 0.0,
                bench_requests - failed, failed);
    std::printf("latency_us p50 %lld p90 %lld p99 %lld\n",
                static_cast<long long>(latency.PercentileMicros(0.50)),
                static_cast<long long>(latency.PercentileMicros(0.90)),
                static_cast<long long>(latency.PercentileMicros(0.99)));
    if (mismatch.load()) {
      std::fprintf(stderr, "error: replies disagreed across connections\n");
      return 1;
    }
    return failed > 0 ? 1 : 0;
  }

  Result<ServeClient> connected = ServeClient::ConnectWithRetry(port, retry);
  if (!connected.ok()) return FailConnect(connected.status());
  ServeClient client = std::move(connected).value();

  if (command == "ping") {
    Status st = client.Ping();
    if (!st.ok()) return Fail(st);
    std::printf("ok\n");
    return 0;
  }
  if (command == "register") {
    reg.name = args[0];
    Result<std::string> text = ReadNfaText(args[1]);
    if (!text.ok()) return Fail(text.status());
    reg.nfa_text = std::move(text).value();
    Status st = client.Register(reg);
    if (!st.ok()) return Fail(st);
    std::printf("registered %s\n", reg.name.c_str());
    return 0;
  }
  if (command == "count") {
    Result<double> estimate = client.CountAtLength(args[0], length);
    if (!estimate.ok()) return Fail(estimate.status());
    std::printf("%.6g\n", estimate.value());
    return 0;
  }
  if (command == "count-state") {
    Result<double> estimate = client.CountFor(args[0], state, length);
    if (!estimate.ok()) return Fail(estimate.status());
    std::printf("%.6g\n", estimate.value());
    return 0;
  }
  if (command == "sample") {
    Result<SampleResult> sampled =
        client.SampleWords(args[0], length, draw_count);
    if (!sampled.ok()) return Fail(sampled.status());
    for (const Word& word : sampled.value().words) {
      std::printf("%s\n", nfacount::WordToString(word).c_str());
    }
    return 0;
  }
  if (command == "extend") {
    Result<int> level = client.ExtendTo(args[0], length);
    if (!level.ok()) return Fail(level.status());
    std::printf("computed %d\n", level.value());
    return 0;
  }
  if (command == "evict") {
    if (args.size() != 1) return Usage();
    Result<bool> was_resident = client.Evict(args[0]);
    if (!was_resident.ok()) return Fail(was_resident.status());
    std::printf("%s\n", was_resident.value() ? "demoted" : "already-demoted");
    return 0;
  }
  if (command == "unregister") {
    if (args.size() != 1) return Usage();
    Status st = client.Unregister(args[0]);
    if (!st.ok()) return Fail(st);
    std::printf("unregistered %s\n", args[0].c_str());
    return 0;
  }
  if (command == "stats") {
    Result<std::string> json = client.Stats();
    if (!json.ok()) return Fail(json.status());
    if (pretty) {
      PrintPrettyStats(json.value());
    } else {
      std::printf("%s\n", json.value().c_str());
    }
    return 0;
  }
  if (command == "shutdown") {
    Status st = client.Shutdown();
    if (!st.ok()) return Fail(st);
    std::printf("ok\n");
    return 0;
  }
  return Usage();
}
