// nfa_serve — the serve-mode counting daemon (docs/ARCHITECTURE.md "Serve
// mode"). Listens on 127.0.0.1 and answers wire-protocol requests
// (serve/protocol.hpp) against a registry of named EngineSessions.
//
// Usage:
//   nfa_serve [--port <p>] [--spill-dir <dir>] [--budget-bytes <b>]
//             [--threads <k>] [--no-simd]
//             [--read-timeout-ms <t>] [--drain-timeout-ms <t>]
//             [--max-connections <n>] [--workers <k>]
//             [--max-inflight <n>] [--legacy-threads]
//
//   --port <p>            TCP port; 0 (default) picks an ephemeral port
//   --spill-dir <dir>     where demoted sessions checkpoint; required for
//                         eviction and durability (absent = sessions stay
//                         resident and nothing survives a restart)
//   --budget-bytes <b>    resident-table budget driving LRU demotion
//                         (-1 = unlimited, the default)
//   --threads <k>         worker threads of every session's level sweeps
//                         (bit-identical results at every setting)
//   --no-simd             force the scalar bitset kernels process-wide
//                         (identical results)
//   --read-timeout-ms <t> per-connection receive timeout (slow-loris guard)
//   --drain-timeout-ms <t>
//                         how long graceful shutdown lets in-flight
//                         requests finish (<= 0 hard-stops immediately)
//   --max-connections <n> connection cap. Reactor runtime: the listener
//                         parks at the cap and excess connects queue in the
//                         kernel backlog (accept backpressure). Legacy
//                         runtime: excess connections get a status-only
//                         Unavailable reply (load shedding). 0 = unlimited
//   --workers <k>         reactor worker-pool size (0 = one per hardware
//                         thread, the default)
//   --max-inflight <n>    per-connection cap on decoded-but-unanswered
//                         pipelined requests; the reactor stops reading a
//                         connection at the cap (0 = unbounded; default 32)
//   --legacy-threads      serve with the PR 7 thread-per-connection runtime
//                         instead of the reactor + worker pool
//
// With --spill-dir the daemon replays the directory's MANIFEST journal at
// startup and revives every surviving session (crash recovery; see
// docs/ARCHITECTURE.md "Durability & crash recovery").
//
// Prints "listening on 127.0.0.1:<port>" once ready; stops on SIGINT /
// SIGTERM or a kShutdown request. Both signals trigger a graceful drain:
// in-flight requests finish (up to the drain timeout), then every session
// is checkpointed. The handler itself only sets a flag — the main thread
// polls it, so no async-signal-unsafe call runs in signal context.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_args.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/simd.hpp"

namespace {

// Signal handlers may only touch lock-free sig_atomic_t state; the main
// thread polls this flag between bounded waits.
volatile std::sig_atomic_t g_stop_signal = 0;

void HandleSignal(int /*signum*/) { g_stop_signal = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: nfa_serve [--port <p>] [--spill-dir <dir>]\n"
               "                 [--budget-bytes <b>] [--threads <k>]\n"
               "                 [--no-simd]\n"
               "                 [--read-timeout-ms <t>]\n"
               "                 [--drain-timeout-ms <t>]\n"
               "                 [--max-connections <n>] [--workers <k>]\n"
               "                 [--max-inflight <n>] [--legacy-threads]\n");
  return 2;
}

/// Strict integer flag value (examples/cli_args.hpp): the whole of `value`
/// must be a base-10 integer in [lo, hi], else the usage text and exit
/// status 2.
int64_t IntFlag(const char* flag, const char* value, int64_t lo, int64_t hi) {
  int64_t parsed = 0;
  if (!cli_args::ParseInt(flag, value, lo, hi, &parsed)) std::exit(Usage());
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using nfacount::FprasParams;
  using nfacount::serve::RegistryOptions;
  using nfacount::serve::ServeDaemon;
  using nfacount::serve::ServerOptions;
  using nfacount::serve::SessionRegistry;

  RegistryOptions registry_options;
  ServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Flags whose documented meaning covers every int (<= 0 = off or
    // unbounded) take the whole int range.
    auto int_flag = [&](const char* flag, int64_t lo = INT_MIN,
                        int64_t hi = INT_MAX) {
      return static_cast<int>(IntFlag(flag, next(flag), lo, hi));
    };
    if (arg == "--port") {
      server_options.port =
          static_cast<uint16_t>(int_flag("--port", 0, 65535));
    } else if (arg == "--spill-dir") {
      registry_options.spill_dir = next("--spill-dir");
    } else if (arg == "--budget-bytes") {
      registry_options.memory_budget_bytes = IntFlag(
          "--budget-bytes", next("--budget-bytes"), -1, INT64_MAX);
    } else if (arg == "--threads") {
      registry_options.knobs.num_threads =
          int_flag("--threads", 0, FprasParams::kMaxThreads);
    } else if (arg == "--no-simd") {
      nfacount::simd::SetForceScalar(true);
    } else if (arg == "--read-timeout-ms") {
      server_options.read_timeout_ms = int_flag("--read-timeout-ms");
    } else if (arg == "--drain-timeout-ms") {
      server_options.drain_timeout_ms = int_flag("--drain-timeout-ms");
    } else if (arg == "--max-connections") {
      server_options.max_connections = int_flag("--max-connections");
    } else if (arg == "--workers") {
      server_options.workers =
          int_flag("--workers", 0, FprasParams::kMaxThreads);
    } else if (arg == "--max-inflight") {
      server_options.max_inflight_per_conn = int_flag("--max-inflight");
    } else if (arg == "--legacy-threads") {
      server_options.legacy_threads = true;
    } else {
      return Usage();
    }
  }

  SessionRegistry registry(registry_options);
  if (!registry_options.spill_dir.empty()) {
    nfacount::Status recovered = registry.Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "error: recovery failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
    std::printf("recovered %lld session(s)",
                static_cast<long long>(registry.sessions_recovered()));
    if (registry.checkpoints_quarantined() > 0) {
      std::printf(" (%lld checkpoint(s) quarantined)",
                  static_cast<long long>(registry.checkpoints_quarantined()));
    }
    std::printf("\n");
  }
  ServeDaemon daemon(&registry, server_options);
  nfacount::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);

  // Poll the signal flag between bounded waits; a kShutdown request trips
  // the wait directly. Either way Stop() runs the graceful drain +
  // SaveAll on the main thread.
  while (g_stop_signal == 0 && !daemon.WaitUntilStopRequestedFor(50)) {
  }
  daemon.Stop();
  return 0;
}
