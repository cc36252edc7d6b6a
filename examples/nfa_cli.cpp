// nfa_cli — command-line front end for the library.
//
// Usage:
//   nfa_cli count   <file.nfa|-(stdin)> <n> [eps] [delta] [seed]
//   nfa_cli count   --load-state <ckpt> [--extend-to <n'>]
//   nfa_cli lengths <file.nfa|-> <n> [eps] [delta] [seed]
//   nfa_cli sample  <file.nfa|-> <n> <count> [seed]
//   nfa_cli exact   <file.nfa|-> <n>
//   nfa_cli regex   '<pattern>' <alphabet_size>      # compile to nfa text
//   nfa_cli dot     <file.nfa|->                     # Graphviz export
//
// Global flags (anywhere on the line):
//   --threads <k>      level-sweep worker threads for count/lengths/sample
//                      (1 = sequential default, 0 = all hardware threads;
//                      results are bit-identical for every value)
//   --descent-cache <e> cross-batch descent-cache entry budget for
//                      count/lengths/sample (0 disables: the uncached
//                      engine, roughly 100x slower; default = engine
//                      default; bit-identical results at every value —
//                      NFACOUNT_DESCENT_CACHE=<e> overrides process-wide)
//   --json <path>      additionally write a machine-readable report of the
//                      run (estimate, parameters, diagnostics, timing)
//
// Session flags (count command only — any other command rejects them as a
// usage error; see docs/ARCHITECTURE.md "Engine lifecycle & incremental
// extension"):
//   --horizon <H>      run as an EngineSession with parameters derived at
//                      horizon H >= n (extendable later up to H)
//   --save-state <p>   save the session as a binary checkpoint after the
//                      query (implies a session; horizon defaults to n)
//   --load-state <p>   resume a checkpoint instead of reading an NFA file;
//                      eps/delta/seed come from the checkpoint, while
//                      --threads/--descent-cache apply as
//                      runtime knobs (never changing any result)
//   --extend-to <n'>   with --load-state: extend the resumed sweep to n'
//                      (n' <= saved horizon) and answer at that length
//
// A session resumed from a checkpoint and extended produces bit-identical
// output to an uninterrupted run at the same seed and horizon.
//
// Every number on the command line is parsed strictly (examples/
// cli_args.hpp): n, count and alphabet size are integers in range, eps is a
// number > 0, delta is in (0, 1), the seed is an unsigned 64-bit integer. A
// malformed value prints the usage text and exits 2, and so does an
// unknown --flag before the `--` separator, a session flag on a command
// other than count, or a positional argument beyond what the command takes.
//
// File format: see src/automata/io.hpp; checkpoint format: see
// docs/FILE_FORMATS.md "Session checkpoints (.ckpt)".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/io.hpp"
#include "automata/regex.hpp"
#include "cli_args.hpp"
#include "counting/exact.hpp"
#include "fpras/fpras.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nfacount;

namespace {

/// Default seed of `sample` when none is given (stable across releases, so
/// scripted runs keep printing the same words).
constexpr uint64_t kSampleSeed = 0xa110ca7eULL;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  nfa_cli count   <file|-> <n> [eps] [delta] [seed]\n"
               "  nfa_cli count   --load-state <ckpt> [--extend-to <n'>]\n"
               "  nfa_cli lengths <file|-> <n> [eps] [delta] [seed]\n"
               "  nfa_cli sample  <file|-> <n> <count> [seed]\n"
               "  nfa_cli exact   <file|-> <n>\n"
               "  nfa_cli regex   '<pattern>' <alphabet_size>\n"
               "  nfa_cli dot     <file|->\n"
               "flags: --threads <k>      (0 = all hardware threads)\n"
               "       --descent-cache <e> descent-cache entries (0 = off)\n"
               "       --json <path>      machine-readable run report\n"
               "session flags (count only):\n"
               "       --horizon <H>      run count as a session sized for H\n"
               "       --save-state <p>   write a session checkpoint\n"
               "       --load-state <p>   resume a session checkpoint\n"
               "       --extend-to <n'>   extend a resumed session to n'\n"
               "       --                 end of flags (later args positional)\n"
               "results are bit-identical for every --threads /\n"
               "--descent-cache value and across checkpoint save/resume\n"
               "boundaries\n");
  return 2;
}

/// Engine knobs extracted from the flag section of the command line.
struct CliFlags {
  int num_threads = 1;
  int descent_cache = -1;  ///< -1 = engine default, 0 = disabled
  int horizon = -1;     ///< -1 = not a session (unless other session flags)
  int extend_to = -1;   ///< -1 = answer at the natural length
  std::string json_path;
  std::string save_state;
  std::string load_state;
  /// The first session flag on the line (--horizon, --extend-to,
  /// --save-state, --load-state), or empty: any makes `count` a session,
  /// and every other command rejects it.
  std::string session_flag;
  bool malformed = false;
};

/// Strips the global flags (anywhere before a `--` separator) out of the
/// argument list; returns the positional arguments. Flag fields keep their
/// defaults when absent; `malformed` is set on a bad value or an unknown
/// `--flag` (a retired flag must not be dropped silently). Everything after
/// a literal `--` is taken positionally — the escape hatch for patterns or
/// filenames that look like a flag (`nfa_cli regex -- '--threads' 2`).
std::vector<std::string> ExtractFlags(int argc, char** argv, CliFlags* flags) {
  std::vector<std::string> positional;
  bool flags_ended = false;
  auto parse_int = [&](int* i, int* out, int64_t max_value) {
    if (*i + 1 >= argc ||
        !cli_args::ParseInt(argv[*i], argv[*i + 1], 0, max_value, out)) {
      flags->malformed = true;  // missing / non-numeric / negative / absurd
      return;
    }
    ++*i;
  };
  auto parse_str = [&](int* i, std::string* out) {
    if (*i + 1 >= argc) {
      flags->malformed = true;
      return;
    }
    *out = argv[++*i];
    if (out->empty()) flags->malformed = true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!flags_ended && arg == "--") {
      flags_ended = true;
      continue;
    }
    if (!flags_ended && arg == "--threads") {
      parse_int(&i, &flags->num_threads, 1 << 20);
    } else if (!flags_ended && arg == "--descent-cache") {
      parse_int(&i, &flags->descent_cache, 1 << 30);
    } else if (!flags_ended && arg == "--horizon") {
      parse_int(&i, &flags->horizon, cli_args::kMaxLength);
      if (flags->session_flag.empty()) flags->session_flag = arg;
    } else if (!flags_ended && arg == "--extend-to") {
      parse_int(&i, &flags->extend_to, cli_args::kMaxLength);
      if (flags->session_flag.empty()) flags->session_flag = arg;
    } else if (!flags_ended && arg == "--json") {
      parse_str(&i, &flags->json_path);
    } else if (!flags_ended && arg == "--save-state") {
      parse_str(&i, &flags->save_state);
      if (flags->session_flag.empty()) flags->session_flag = arg;
    } else if (!flags_ended && arg == "--load-state") {
      parse_str(&i, &flags->load_state);
      if (flags->session_flag.empty()) flags->session_flag = arg;
    } else if (!flags_ended && arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      flags->malformed = true;
    } else {
      positional.push_back(arg);
      continue;
    }
    if (flags->malformed) return positional;
  }
  return positional;
}

/// Most positional arguments `command` takes, the command itself included
/// (`count --load-state` takes none beyond it); 0 for an unknown command.
size_t MaxArgs(const std::string& command, bool resume) {
  if (command == "count") return resume ? 1 : 6;
  if (command == "lengths") return 6;
  if (command == "sample") return 5;
  if (command == "exact" || command == "regex") return 3;
  if (command == "dot") return 2;
  return 0;
}

Result<Nfa> LoadFromArg(const std::string& arg) {
  if (arg == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return ParseNfaText(buffer.str());
  }
  return LoadNfaFile(arg);
}

/// The flag section's engine knobs as CountOptions — the one flags → options
/// copy behind count, lengths, sample, and fresh sessions.
CountOptions OptionsFromFlags(const CliFlags& flags) {
  CountOptions options;
  options.num_threads = flags.num_threads;
  options.descent_cache_capacity = flags.descent_cache;
  return options;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Renders the run counters for --json reports.
JsonObject DiagnosticsJson(const FprasDiagnostics& d) {
  JsonObject o;
  o.Set("appunion_calls", d.appunion_calls)
      .Set("appunion_trials", d.appunion_trials)
      .Set("membership_checks", d.membership_checks)
      .Set("starvations", d.starvations)
      .Set("memo_hits", d.memo_hits)
      .Set("memo_misses", d.memo_misses)
      .Set("descent_hits", d.descent_hits)
      .Set("descent_misses", d.descent_misses)
      .Set("descent_entries", d.descent_entries)
      .Set("descent_bytes", d.descent_bytes)
      .Set("sample_calls", d.sample_calls)
      .Set("sample_success", d.sample_success)
      .Set("fail_phi_gt_1", d.fail_phi_gt_1)
      .Set("fail_bernoulli", d.fail_bernoulli)
      .Set("fail_dead_branch", d.fail_dead_branch)
      .Set("padded_words", d.padded_words)
      .Set("perturbed_counts", d.perturbed_counts)
      .Set("states_processed", d.states_processed)
      .Set("walk_batches", d.walk_batches)
      .Set("profile_steps", d.profile_steps)
      .Set("arena_bytes_reserved", d.arena_bytes_reserved)
      .Set("arena_alloc_events", d.arena_alloc_events)
      .Set("wall_seconds", d.wall_seconds);
  return o;
}

/// Writes a --json report; empty path is a no-op, failures are fatal so a
/// scripted pipeline never silently loses its output.
int WriteJsonReport(const std::string& path, const JsonObject& report) {
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write --json file %s\n", path.c_str());
    return 1;
  }
  const std::string body = report.Render() + "\n";
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != body.size() || !closed) {
    std::fprintf(stderr, "error: short write on --json file %s\n",
                 path.c_str());
    std::remove(path.c_str());
    return 1;
  }
  return 0;
}

/// The count command on the session path (--horizon / --save-state /
/// --load-state / --extend-to): create or resume an EngineSession, extend it
/// to the query length, answer, optionally persist.
int RunSessionCount(const CliFlags& flags,
                    const std::vector<std::string>& args) {
  WallTimer timer;
  Result<EngineSession> session = Status::Internal("unreachable");
  int query_len = -1;

  if (!flags.load_state.empty()) {
    // Resume: the checkpoint carries the automaton and all derivation
    // parameters; the CLI knobs apply as runtime-only overrides.
    SessionKnobs knobs;
    knobs.num_threads = flags.num_threads;
    knobs.descent_cache_capacity = flags.descent_cache;
    session = EngineSession::Load(flags.load_state, &knobs);
    if (!session.ok()) return Fail(session.status());
    query_len = flags.extend_to >= 0 ? flags.extend_to
                                     : session->computed_level();
  } else {
    // Fresh session: positional <file> <n> as in the plain count command,
    // with the horizon defaulting to n.
    int n = 0;
    CountOptions options = OptionsFromFlags(flags);
    if (args.size() < 3 ||
        !cli_args::ParseInt("n", args[2], 0, cli_args::kMaxLength, &n) ||
        !cli_args::ParseAccuracyArgs(args, 3, &options.eps, &options.delta,
                                     &options.seed)) {
      return Usage();
    }
    Result<Nfa> nfa = LoadFromArg(args[1]);
    if (!nfa.ok()) return Fail(nfa.status());
    const int horizon = flags.horizon >= 0 ? flags.horizon : n;
    if (horizon < n) {
      std::fprintf(stderr, "error: --horizon must be >= n\n");
      return 2;
    }
    session = EngineSession::Create(*nfa, horizon, options);
    if (!session.ok()) return Fail(session.status());
    query_len = flags.extend_to >= 0 ? flags.extend_to : n;
  }

  Result<double> estimate = session->CountAtLength(query_len);
  if (!estimate.ok()) return Fail(estimate.status());
  std::printf("%.6g\n", *estimate);

  if (!flags.save_state.empty()) {
    Status saved = session->Save(flags.save_state);
    if (!saved.ok()) return Fail(saved);
  }

  const FprasDiagnostics& diag = session->diagnostics();
  std::fprintf(stderr,
               "# session horizon=%d computed=%d length=%d seed=%llu "
               "threads=%d wall_ms=%.1f%s%s\n",
               session->horizon(), session->computed_level(), query_len,
               static_cast<unsigned long long>(session->seed()),
               flags.num_threads, timer.ElapsedSeconds() * 1e3,
               flags.save_state.empty() ? "" : " saved=",
               flags.save_state.c_str());

  JsonObject report;
  report.Set("command", "count")
      .Set("mode", flags.load_state.empty() ? "session" : "session-resume")
      .Set("estimate", *estimate)
      .Set("length", query_len)
      .Set("horizon", session->horizon())
      .Set("computed_level", session->computed_level())
      .Set("eps", session->params().eps)
      .Set("delta", session->params().delta)
      .Set("seed", session->seed())
      .Set("threads", flags.num_threads)
      .Set("wall_seconds", timer.ElapsedSeconds())
      .SetRaw("diagnostics", DiagnosticsJson(diag).Render());
  return WriteJsonReport(flags.json_path, report);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  const std::vector<std::string> args = ExtractFlags(argc, argv, &flags);
  const bool session_mode = !flags.session_flag.empty();
  if (flags.malformed || args.empty()) return Usage();
  // Only count runs as a session: silently answering `sample ...
  // --save-state x` without writing x would lose the caller's state.
  if (session_mode && args[0] != "count") {
    std::fprintf(stderr, "error: %s applies only to count, not %s\n",
                 flags.session_flag.c_str(), args[0].c_str());
    return Usage();
  }
  const size_t max_args = MaxArgs(args[0], !flags.load_state.empty());
  if (args.size() > max_args) {
    if (max_args > 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   args[max_args].c_str());
    }
    return Usage();
  }
  const std::string& command = args[0];

  // Only `count --load-state` may omit the positional <file> argument (the
  // checkpoint carries the automaton); every other command needs it.
  if (command == "count" && session_mode) return RunSessionCount(flags, args);
  if (args.size() < 2) return Usage();

  if (command == "regex") {
    int alphabet_size = 0;
    if (args.size() < 3 ||
        !cli_args::ParseInt("alphabet_size", args[2], 1,
                            kMaxCharAlphabetSize, &alphabet_size)) {
      return Usage();
    }
    Result<Nfa> nfa = CompileRegex(args[1], alphabet_size);
    if (!nfa.ok()) return Fail(nfa.status());
    std::fputs(NfaToText(*nfa).c_str(), stdout);
    return 0;
  }

  if (command == "dot") {
    Result<Nfa> nfa = LoadFromArg(args[1]);
    if (!nfa.ok()) return Fail(nfa.status());
    std::fputs(NfaToDot(*nfa).c_str(), stdout);
    return 0;
  }

  // Every remaining command takes <file> <n> [...]: check the numbers
  // before reading the automaton.
  int n = 0;
  if (args.size() < 3 ||
      !cli_args::ParseInt("n", args[2], 0, cli_args::kMaxLength, &n)) {
    return Usage();
  }
  CountOptions options = OptionsFromFlags(flags);
  int64_t count = 0;
  if (command == "count" || command == "lengths") {
    if (!cli_args::ParseAccuracyArgs(args, 3, &options.eps, &options.delta,
                                     &options.seed)) {
      return Usage();
    }
  } else if (command == "sample") {
    options.seed = kSampleSeed;
    if (args.size() < 4 ||
        !cli_args::ParseInt("count", args[3], 0, INT64_MAX, &count) ||
        (args.size() > 4 && !cli_args::ParseU64("seed", args[4],
                                                &options.seed))) {
      return Usage();
    }
  }
  Result<Nfa> nfa = LoadFromArg(args[1]);
  if (!nfa.ok()) return Fail(nfa.status());

  if (command == "count" || command == "lengths") {
    if (command == "count") {
      Result<CountEstimate> r = ApproxCount(*nfa, n, options);
      if (!r.ok()) return Fail(r.status());
      std::printf("%.6g\n", r->estimate);
      std::fprintf(stderr,
                   "# eps=%.3g delta=%.3g seed=%llu threads=%d wall_ms=%.1f "
                   "appunion_calls=%lld\n",
                   options.eps, options.delta,
                   static_cast<unsigned long long>(options.seed),
                   options.num_threads, r->diagnostics.wall_seconds * 1e3,
                   static_cast<long long>(r->diagnostics.appunion_calls));
      std::fprintf(stderr,
                   "# memo_hits=%lld memo_misses=%lld "
                   "arena_bytes=%lld arena_allocs=%lld\n",
                   static_cast<long long>(r->diagnostics.memo_hits),
                   static_cast<long long>(r->diagnostics.memo_misses),
                   static_cast<long long>(r->diagnostics.arena_bytes_reserved),
                   static_cast<long long>(r->diagnostics.arena_alloc_events));
      JsonObject report;
      report.Set("command", "count")
          .Set("mode", "one-shot")
          .Set("estimate", r->estimate)
          .Set("length", n)
          .Set("eps", options.eps)
          .Set("delta", options.delta)
          .Set("seed", options.seed)
          .Set("threads", options.num_threads)
          .Set("wall_seconds", r->diagnostics.wall_seconds)
          .SetRaw("diagnostics", DiagnosticsJson(r->diagnostics).Render());
      return WriteJsonReport(flags.json_path, report);
    } else {
      Result<std::vector<double>> r = ApproxCountAllLengths(*nfa, n, options);
      if (!r.ok()) return Fail(r.status());
      std::string slices = "[";
      for (int len = 0; len <= n; ++len) {
        std::printf("%d %.6g\n", len, (*r)[len]);
        if (len > 0) slices += ",";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", (*r)[len]);
        slices += buf;
      }
      slices += "]";
      JsonObject report;
      report.Set("command", "lengths")
          .Set("n", n)
          .Set("eps", options.eps)
          .Set("delta", options.delta)
          .Set("seed", options.seed)
          .SetRaw("estimates", std::move(slices));
      return WriteJsonReport(flags.json_path, report);
    }
  }

  if (command == "sample") {
    Result<EngineSession> session = EngineSession::Create(*nfa, n, options);
    if (!session.ok()) return Fail(session.status());
    // One SampleWords call per chunk, never per word (each call discards the
    // speculative walks of its final batch).
    for (int64_t left = count; left > 0;) {
      const int64_t chunk = std::min(left, EngineSession::kMaxDrawsPerCall);
      Result<std::vector<Word>> words = session->SampleWords(n, chunk);
      if (!words.ok()) return Fail(words.status());
      for (const Word& w : *words) {
        std::printf("%s\n", WordToString(w).c_str());
      }
      left -= chunk;
    }
    return 0;
  }

  if (command == "exact") {
    Result<BigUint> r = ExactCountViaDfa(*nfa, n);
    if (!r.ok()) return Fail(r.status());
    std::printf("%s\n", r->ToString().c_str());
    return 0;
  }

  return Usage();
}
