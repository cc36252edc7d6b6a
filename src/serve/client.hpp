// ServeClient — a blocking, single-connection client for the serve-mode
// wire protocol (serve/protocol.hpp). The typed helpers run one request at
// a time; the Send*/Read* split lets a caller pipeline N requests onto the
// wire before reading the N replies back (the daemon answers in request
// order). Open several clients for connection-level concurrency. Used by
// tests, perfbench, bench_e18_serve_scaling, and the nfa_client
// example binary.

#ifndef NFACOUNT_SERVE_CLIENT_HPP_
#define NFACOUNT_SERVE_CLIENT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/net.hpp"

namespace nfacount {
namespace serve {

/// One SampleWords reply: the words plus where in the session's
/// deterministic draw stream this chunk started (for reassembling the
/// stream across concurrent clients).
struct SampleResult {
  int64_t cursor_start = 0;  ///< first attempt cursor of this chunk
  std::vector<Word> words;   ///< the drawn words, in stream order
};

/// Client-side retry policy: bounded attempts with exponential backoff and
/// decorrelated jitter (each delay is drawn uniformly from [base, 3×previous
/// delay], capped), so a fleet of shed clients spreads out instead of
/// re-stampeding the daemon in lockstep.
struct RetryPolicy {
  int max_attempts = 5;     ///< total attempts (1 = no retry)
  int base_delay_ms = 10;   ///< first delay / jitter floor
  int max_delay_ms = 2000;  ///< delay cap
  uint64_t seed = 0;        ///< jitter RNG seed (0 = a fixed default)
};

/// A connected serve-mode client. Movable, not copyable.
class ServeClient {
 public:
  /// Connects to a daemon on 127.0.0.1:`port`.
  static Result<ServeClient> Connect(uint16_t port);

  /// Connects under `policy`, retrying two retryable outcomes: the TCP
  /// connect failing (daemon not up yet / restarting) and the daemon
  /// shedding the connection under load (its status-only Unavailable
  /// greeting, observed by a Ping probe — so a returned client is proven
  /// live, not shed). Non-retryable errors and attempt exhaustion return
  /// the last status.
  static Result<ServeClient> ConnectWithRetry(uint16_t port,
                                              const RetryPolicy& policy);

  /// Round-trips an empty kPing frame.
  Status Ping();
  /// Registers a named session on the daemon.
  Status Register(const RegisterRequest& req);
  /// |L(A_length)| of the named session.
  Result<double> CountAtLength(const std::string& name, int length);
  /// N(q^length) of the named session.
  Result<double> CountFor(const std::string& name, int32_t state, int length);
  /// Draws `count` words from L(A_length) of the named session.
  Result<SampleResult> SampleWords(const std::string& name, int length,
                                   int64_t count);
  /// Extends the named session to `level`; returns the computed level.
  Result<int> ExtendTo(const std::string& name, int level);
  /// Demotes the named session to its checkpoint; true iff it was resident.
  Result<bool> Evict(const std::string& name);
  /// Removes the named session durably (journal tombstone + checkpoint
  /// deletion); the name is free for re-registration afterwards.
  Status Unregister(const std::string& name);
  /// The daemon's stats JSON document.
  Result<std::string> Stats();
  /// Asks the daemon to stop (it replies OK first).
  Status Shutdown();

  /// @name Pipelined API
  /// Send any number of requests back-to-back, then read the replies in the
  /// same order. The daemon's reactor answers each connection strictly in
  /// request order, so the k-th ReadReplyBody() matches the k-th send.
  /// Interleaving with the typed round-trip helpers is fine as long as every
  /// outstanding reply is read first.
  /// @{
  /// Writes one request frame; does not wait for the reply.
  Status SendRequest(MsgType type, const std::string& payload);
  /// Reads the next kReply frame: propagates transport errors and non-OK
  /// reply statuses; on OK returns the reply body (the bytes after the
  /// status block).
  Result<std::string> ReadReplyBody();
  /// Sends a kCount request for |L(A_length)| (pair with ReadCountReply).
  Status SendCount(const std::string& name, int length);
  /// Reads a kCount (or kCountState) reply and decodes the F64 estimate.
  Result<double> ReadCountReply();
  /// @}

  /// The underlying socket — exposed so fault-injection tests can push raw
  /// malformed bytes at the daemon (and half-close via ShutdownWrite()).
  SocketFd& socket() { return sock_; }

 private:
  explicit ServeClient(SocketFd sock) : sock_(std::move(sock)) {}

  /// SendRequest + ReadReplyBody: one blocking request/reply exchange.
  Result<std::string> RoundTrip(MsgType type, const std::string& payload);

  SocketFd sock_;
};

}  // namespace serve
}  // namespace nfacount

#endif  // NFACOUNT_SERVE_CLIENT_HPP_
