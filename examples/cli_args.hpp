// Strict number parsing for the example binaries' command lines (nfa_cli,
// nfa_client, nfa_serve): the whole argument must be a number inside the
// argument's own range. atoi/atof/strtoull would silently read "abc" as 0,
// "1O" as 1 and "-3" as a huge unsigned value, and a cast would truncate
// port 70000 to 4464; each binary turns a `false` here into its usage text
// and exit status 2.

#ifndef NFACOUNT_EXAMPLES_CLI_ARGS_HPP_
#define NFACOUNT_EXAMPLES_CLI_ARGS_HPP_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace cli_args {

/// Largest word length / horizon / level the binaries accept.
inline constexpr int64_t kMaxLength = int64_t{1} << 20;

/// Base-10 integer in [lo, hi]. On failure prints
/// "error: <what> must be an integer in lo..hi, got '<text>'" and returns
/// false, leaving *out untouched.
inline bool ParseInt(const char* what, const std::string& text, int64_t lo,
                     int64_t hi, int64_t* out) {
  const char* value = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || parsed < lo ||
      parsed > hi) {
    std::fprintf(stderr,
                 "error: %s must be an integer in %lld..%lld, got '%s'\n",
                 what, static_cast<long long>(lo), static_cast<long long>(hi),
                 value);
    return false;
  }
  *out = parsed;
  return true;
}

/// `int` convenience over ParseInt (the range must fit an int).
inline bool ParseInt(const char* what, const std::string& text, int64_t lo,
                     int64_t hi, int* out) {
  int64_t parsed = 0;
  if (!ParseInt(what, text, lo, hi, &parsed)) return false;
  *out = static_cast<int>(parsed);
  return true;
}

/// Base-10 unsigned 64-bit integer (a seed): digits only, no sign.
inline bool ParseU64(const char* what, const std::string& text,
                     uint64_t* out) {
  const char* value = text.c_str();
  char* end = nullptr;
  errno = 0;
  // strtoull takes a sign and wraps "-3" to 2^64 - 3: require a digit first.
  const bool digit_first = value[0] >= '0' && value[0] <= '9';
  const unsigned long long parsed =
      digit_first ? std::strtoull(value, &end, 10) : 0;
  if (!digit_first || errno != 0 || *end != '\0') {
    std::fprintf(stderr,
                 "error: %s must be an unsigned 64-bit integer, got '%s'\n",
                 what, value);
    return false;
  }
  *out = parsed;
  return true;
}

/// Finite real number in the open interval (lo, hi).
inline bool ParseReal(const char* what, const std::string& text, double lo,
                      double hi, double* out) {
  const char* value = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (errno != 0 || end == value || *end != '\0' || !std::isfinite(parsed) ||
      !(parsed > lo && parsed < hi)) {
    std::fprintf(stderr, "error: %s must be a number in (%g, %g), got '%s'\n",
                 what, lo, hi, value);
    return false;
  }
  *out = parsed;
  return true;
}

/// The optional positional [eps] [delta] [seed] that start at args[from]
/// (nfa_cli count/lengths, nfa_client register): eps > 0, delta in (0, 1),
/// an unsigned 64-bit seed. Absent arguments keep the caller's defaults.
inline bool ParseAccuracyArgs(const std::vector<std::string>& args,
                              size_t from, double* eps, double* delta,
                              uint64_t* seed) {
  const double kInf = std::numeric_limits<double>::infinity();
  return (args.size() <= from ||
          ParseReal("eps", args[from], 0.0, kInf, eps)) &&
         (args.size() <= from + 1 ||
          ParseReal("delta", args[from + 1], 0.0, 1.0, delta)) &&
         (args.size() <= from + 2 || ParseU64("seed", args[from + 2], seed));
}

}  // namespace cli_args

#endif  // NFACOUNT_EXAMPLES_CLI_ARGS_HPP_
