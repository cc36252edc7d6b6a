// ServeDaemon — the socket front of serve mode: accepts loopback TCP
// connections, reads protocol.hpp frames, and dispatches them against a
// SessionRegistry.
//
// Two runtimes share the dispatch/metrics/drain machinery:
//
//  * The default event-driven runtime: one nonblocking reactor thread owns
//    every socket (epoll on Linux, poll elsewhere — util/net.hpp Poller),
//    doing frame assembly and reply writeback through per-connection
//    buffers, and hands decoded requests to a bounded worker pool that runs
//    the SessionRegistry paths. A connection is scheduled onto at most one
//    worker at a time and its requests are served strictly in arrival
//    order, so clients may pipeline frames and replies come back in request
//    order — byte-identical to the serial runtime at any worker count.
//  * The PR 7 thread-per-connection runtime (ServerOptions::legacy_threads),
//    kept as the scaling baseline for bench_e18 and for the connect-time
//    shedding behavior some deployments may still want.
//
// Fault posture: every protocol violation is classified (InvalidArgument /
// DataLoss / DeadlineExceeded) and turns into a best-effort error reply
// followed by a clean connection teardown — a malformed or malicious peer
// can never crash or wedge the daemon, only lose its own connection
// (tests/test_serve_protocol.cpp, tests/test_serve_pipeline.cpp).

#ifndef NFACOUNT_SERVE_SERVER_HPP_
#define NFACOUNT_SERVE_SERVER_HPP_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/metrics.hpp"
#include "util/net.hpp"
#include "util/timer.hpp"

namespace nfacount {
namespace serve {

/// Daemon configuration.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via ServeDaemon::port()).
  uint16_t port = 0;
  /// Per-connection receive timeout in ms; a peer that stalls mid-frame or
  /// sits idle between requests (slow loris) is cut off after this long.
  /// <= 0 disables the timeout.
  int read_timeout_ms = 10000;
  /// How long Stop() lets in-flight requests finish before hard-stopping
  /// the stragglers. <= 0 skips the drain phase entirely.
  int drain_timeout_ms = 5000;
  /// Connection cap. Reactor runtime: the listener is parked once the cap
  /// is reached and excess connects wait in the kernel backlog until a slot
  /// frees (accept-side backpressure, nobody is turned away). Legacy
  /// runtime: connections beyond the cap are accepted, answered with a
  /// status-only Unavailable reply, and closed (load-shed). 0 = unlimited.
  int max_connections = 0;
  /// Worker pool size for the event-driven runtime; 0 = one worker per
  /// hardware thread. Start() rejects values outside [0, 4096] under
  /// either runtime; the legacy runtime otherwise ignores it.
  int workers = 0;
  /// Per-connection cap on decoded requests whose replies have not yet been
  /// fully flushed back to the peer. A pipelining client past the cap is
  /// simply not read from until replies drain (TCP backpressure), bounding
  /// the daemon's per-connection memory. <= 0 = unbounded. Ignored by the
  /// legacy runtime (which is serial per connection anyway).
  int max_inflight_per_conn = 32;
  /// Run the PR 7 thread-per-connection runtime instead of the reactor.
  bool legacy_threads = false;
};

/// The serve-mode daemon. Owns the listener, the reactor + worker pool (or
/// the legacy connection threads); the registry is borrowed and must
/// outlive the daemon.
class ServeDaemon {
 public:
  /// The daemon starts stopped; call Start().
  ServeDaemon(SessionRegistry* registry, ServerOptions options);
  /// Stops and joins everything still running.
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the listener and starts the serving threads. FailedPrecondition
  /// when already started.
  Status Start();

  /// Signals the daemon to stop: closes the listener and shuts down every
  /// live connection. Safe from any thread, including worker and connection
  /// threads (it never joins). Idempotent.
  void RequestStop();

  /// Graceful shutdown: stops accepting, lets in-flight requests finish up
  /// to ServerOptions::drain_timeout_ms (idle connections are cut loose
  /// immediately; pipelined requests already decoded are served), hard-stops
  /// any stragglers, joins every thread, and finally demotes all resident
  /// sessions via the registry's SaveAll() so a clean shutdown loses
  /// nothing — draw cursors included. The drain phase is skipped when a
  /// stop was already requested (kShutdown request or RequestStop()). Must
  /// not be called from a worker or connection thread.
  void Stop();

  /// Blocks until RequestStop() is called (by Stop, a kShutdown request, or
  /// the main thread reacting to a signal flag).
  void WaitUntilStopRequested();

  /// Waits up to `timeout_ms` for a stop request; returns whether one
  /// arrived. The polling primitive for an async-signal-safe main loop:
  /// the signal handler only sets a flag, and the main thread alternates
  /// between checking the flag and this bounded wait.
  bool WaitUntilStopRequestedFor(int timeout_ms);

  /// The bound TCP port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Renders daemon metrics (uptime, qps, queue depth, bytes in/out,
  /// per-op latency + queue-wait histograms) and the registry's stats into
  /// one JSON document.
  std::string StatsJson() const;

  /// @name Observability accessors (tests poll these instead of sleeping).
  /// @{
  /// Live connections right now.
  int64_t active_connections() const;
  /// Total request bytes read off sockets.
  int64_t bytes_in() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  /// Total reply bytes written to sockets.
  int64_t bytes_out() const {
    return bytes_out_.load(std::memory_order_relaxed);
  }
  /// Decoded requests waiting for a worker right now (0 in legacy mode).
  int64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Times the listener was parked because max_connections was reached.
  int64_t accept_backpressure_events() const {
    return accept_backpressure_.load(std::memory_order_relaxed);
  }
  /// Worker pool size (0 in legacy mode).
  int worker_count() const { return worker_count_; }
  /// @}

 private:
  // --- shared dispatch -----------------------------------------------------

  /// Dispatches one decoded request frame; returns the reply payload.
  std::string Dispatch(const Frame& frame, bool* stop_after_reply);
  /// Applies the oversize-reply backstop and records op metrics; returns
  /// the final reply payload.
  std::string FinishReply(int op, std::string reply, int64_t service_us,
                          int64_t queue_wait_us);

  // --- event-driven runtime ------------------------------------------------

  /// One decoded request (or injected teardown) waiting for a worker.
  struct PendingReq {
    Frame frame;
    int64_t enqueue_us = 0;  ///< reactor clock at decode (queue-wait metric)
    /// Framing violation / timeout: the worker emits `error` as a
    /// best-effort reply and the connection closes after the flush.
    bool teardown = false;
    Status error;
  };

  /// A reactor-managed connection. The reactor thread exclusively owns the
  /// socket and the read-side fields; `mu` guards the fields shared with
  /// workers (pending queue, outbox, in-flight accounting). Held by
  /// shared_ptr so a worker finishing after the reactor destroyed the
  /// connection touches valid memory.
  struct RConn {
    SocketFd sock;
    uint64_t id = 0;  ///< poller tag and rconns_ key

    // Reactor-only.
    std::string inbuf;         ///< unparsed inbound bytes
    size_t in_off = 0;         ///< parse offset into inbuf
    std::string wbuf;          ///< outbox entry currently being written
    size_t wbuf_off = 0;       ///< write offset into wbuf
    int64_t last_read_us = 0;  ///< last byte received (idle-timeout scan)
    bool want_write = false;   ///< poller interest includes kWritable
    bool read_paused = false;  ///< kReadable dropped (in-flight cap)
    bool read_eof = false;     ///< peer half-closed; drain buffered frames
    bool read_closed = false;  ///< teardown queued / draining: stop reading
    bool dead = false;         ///< destroyed; late flush requests are no-ops
    bool timeout_fired = false;  ///< idle-timeout teardown already queued

    // Shared with workers (guarded by mu).
    std::mutex mu;
    std::deque<PendingReq> pending;  ///< decoded, waiting for a worker
    bool scheduled = false;          ///< on the worker queue / being worked
    int inflight = 0;  ///< decoded requests not yet fully flushed
    std::deque<std::string> outbox;  ///< encoded reply frames, in order
    bool close_after_flush = false;
    bool stop_after_flush = false;  ///< kShutdown: flush, then RequestStop
  };

  void ReactorLoop();
  void WorkerLoop();
  /// Accepts until EAGAIN or the connection cap parks the listener.
  void AcceptReady();
  /// Reads available bytes, assembles frames, queues work.
  void ReadReady(const std::shared_ptr<RConn>& conn);
  /// Decodes complete frames out of conn->inbuf into the pending queue.
  void ParseFrames(const std::shared_ptr<RConn>& conn);
  /// Queues a framing-violation teardown (best-effort error reply, then
  /// close) behind any already-pipelined requests.
  void QueueTeardown(const std::shared_ptr<RConn>& conn, Status error);
  /// Writes outbox bytes until EAGAIN or empty; handles close/stop flags.
  void FlushConn(const std::shared_ptr<RConn>& conn);
  /// Re-applies the poller interest mask derived from the conn flags.
  void UpdateInterest(const std::shared_ptr<RConn>& conn);
  /// Tears the connection down now: deregisters, closes, forgets.
  void DestroyConn(const std::shared_ptr<RConn>& conn);
  /// Cuts idle connections and queues DeadlineExceeded teardowns for peers
  /// quiet longer than read_timeout_ms.
  void ScanIdle(int64_t now_us);
  /// Drain tick: stop reading everywhere, close connections as they go
  /// idle, and mark the drain complete when none remain.
  void DrainTick();
  /// Re-arms the parked listener when a slot frees up.
  void MaybeResumeAccept();

  Poller poller_;
  WakePipe wake_;
  std::thread reactor_thread_;
  std::vector<std::thread> worker_threads_;
  int worker_count_ = 0;
  /// Reactor-only: live connections by id (the poller tag).
  std::unordered_map<uint64_t, std::shared_ptr<RConn>> rconns_;
  uint64_t next_conn_id_ = 2;  ///< 0 = listener tag, 1 = wake tag
  bool accept_parked_ = false;
  int64_t last_idle_scan_us_ = 0;

  /// Worker queue: connections with pending requests.
  std::mutex wq_mu_;
  std::condition_variable wq_cv_;
  std::deque<std::shared_ptr<RConn>> wq_;
  bool workers_stop_ = false;

  /// Flush channel: workers park connections here and Signal() the wake
  /// pipe; the reactor drains it every iteration.
  std::mutex flush_mu_;
  std::vector<std::shared_ptr<RConn>> flush_list_;

  std::atomic<bool> drain_complete_{false};

  // --- legacy thread-per-connection runtime --------------------------------

  /// A live (or finished) connection: its socket and thread. The struct's
  /// address is stable for the connection's lifetime (held by unique_ptr),
  /// so the connection thread works on a bare pointer.
  struct Connection {
    SocketFd sock;
    std::thread thread;
    std::atomic<bool> done{false};
    /// The connection thread is between "request decoded" and "reply
    /// written" — the work a graceful drain waits for.
    std::atomic<bool> in_flight{false};
  };

  /// Accept loop body (accept thread).
  void AcceptLoop();
  /// Per-connection loop body: frames in, replies out, until the peer
  /// closes, errors, or the daemon stops.
  void ServeConnection(Connection* conn);
  /// Joins and frees connections the moment they finish (no waiting for
  /// the next accept): connection threads announce themselves on
  /// finished_ and this thread reaps them.
  void ReaperLoop();

  std::thread accept_thread_;
  std::thread reaper_thread_;
  mutable std::mutex conns_mu_;  ///< guards conns_
  std::vector<std::unique_ptr<Connection>> conns_;
  std::mutex finished_mu_;
  std::condition_variable finished_cv_;
  std::deque<Connection*> finished_;
  bool reaper_stop_ = false;

  // --- common state --------------------------------------------------------

  SessionRegistry* registry_;
  ServerOptions options_;
  SocketFd listener_;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  /// Stop() is draining: no new connections; already-received requests
  /// finish and every connection hangs up once its replies are flushed.
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> connections_shed_{0};
  std::atomic<int64_t> accept_backpressure_{0};
  std::atomic<int64_t> drain_duration_ms_{-1};  ///< -1 until a drain ran
  std::atomic<bool> drained_clean_{false};
  std::atomic<int64_t> active_conns_{0};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> bytes_out_{0};
  mutable std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  /// Per-message-type request metrics, indexed by MsgType value.
  mutable std::array<OpMetrics, kNumMsgTypes> op_metrics_;
  WallTimer uptime_;
};

}  // namespace serve
}  // namespace nfacount

#endif  // NFACOUNT_SERVE_SERVER_HPP_
