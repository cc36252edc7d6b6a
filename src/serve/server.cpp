#include "serve/server.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace nfacount {
namespace serve {

namespace {

/// Short lowercase op names for the metrics JSON, indexed by MsgType value.
const char* const kOpNames[kNumMsgTypes] = {
    "reply",  "ping",   "register", "count",    "count_state", "sample",
    "extend", "stats",  "evict",    "shutdown", "unregister",
};

/// Poller tags for the two non-connection descriptors; connection ids
/// start at 2 (ServeDaemon::next_conn_id_).
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Bytes pulled off a socket per recv call.
constexpr size_t kReadChunk = 64u << 10;
/// Cap on bytes read from one connection per readiness event, so one
/// firehose peer cannot starve the rest (level-triggered polling re-reports
/// the remainder immediately).
constexpr size_t kMaxReadPerEvent = 256u << 10;
/// inbuf prefix garbage tolerated before compacting the buffer.
constexpr size_t kCompactThreshold = 1u << 20;
/// Readiness events handled per reactor iteration.
constexpr size_t kMaxPollEvents = 64;
/// Idle-timeout scan cadence.
constexpr int64_t kIdleScanPeriodUs = 100 * 1000;

/// Steady-clock microseconds (reactor timestamps; never wall time).
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeDaemon::ServeDaemon(SessionRegistry* registry, ServerOptions options)
    : registry_(registry), options_(options) {}

ServeDaemon::~ServeDaemon() { Stop(); }

Status ServeDaemon::Start() {
  // Before binding or spawning anything: an absurd pool size must be a
  // Status, not thousands of threads.
  if (options_.workers < 0 || options_.workers > FprasParams::kMaxThreads) {
    return Status::Invalid("serve: workers must be in [0, 4096]");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("serve: daemon already started");
  }
  Result<SocketFd> listener = ListenLoopback(options_.port, &port_);
  if (!listener.ok()) {
    started_.store(false);
    return listener.status();
  }
  listener_ = std::move(listener).value();
  uptime_.Restart();
  if (options_.legacy_threads) {
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    reaper_thread_ = std::thread([this] { ReaperLoop(); });
    return Status::Ok();
  }
  if (!poller_.valid() || !wake_.valid()) {
    started_.store(false);
    listener_.Close();
    return Status::Internal("serve: failed to create poller or wake pipe");
  }
  Status setup = SetNonBlocking(listener_, true);
  if (setup.ok()) setup = poller_.Add(listener_.fd(), Poller::kReadable,
                                      kListenerTag);
  if (setup.ok()) setup = poller_.Add(wake_.fd(), Poller::kReadable, kWakeTag);
  if (!setup.ok()) {
    started_.store(false);
    listener_.Close();
    return setup;
  }
  int workers = options_.workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 0 ? static_cast<int>(hw) : 1;
  }
  worker_count_ = workers;
  worker_threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  reactor_thread_ = std::thread([this] { ReactorLoop(); });
  return Status::Ok();
}

void ServeDaemon::RequestStop() {
  if (stop_requested_.exchange(true)) return;
  // shutdown(), not close(): on Linux, closing a listener does NOT wake a
  // thread blocked in accept(), but shutting it down does — and closing a
  // descriptor another thread is still reading risks the kernel handing the
  // same number to a new socket. Descriptors are closed in Stop() (or the
  // reactor epilogue), after the threads using them are done with them.
  listener_.ShutdownBoth();
  if (options_.legacy_threads) {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->sock.ShutdownBoth();
  } else {
    // The reactor polls stop_requested_ every iteration; the wake pipe
    // bounds the reaction time by its poll timeout.
    wake_.Signal();
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_cv_.notify_all();
  }
}

void ServeDaemon::Stop() {
  if (!started_.load()) return;
  if (options_.legacy_threads) {
    if (!stop_requested_.load() && options_.drain_timeout_ms > 0) {
      // Drain phase: stop accepting, cut idle connections loose, and give
      // every in-flight request up to the deadline to finish its reply.
      draining_.store(true);
      listener_.ShutdownBoth();  // wakes the accept thread (see RequestStop)
      if (accept_thread_.joinable()) accept_thread_.join();
      WallTimer drain_timer;
      bool all_done = false;
      for (;;) {
        all_done = true;
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          for (auto& conn : conns_) {
            if (conn->done.load()) continue;
            all_done = false;
            // A connection parked between requests has nothing in flight;
            // shutting its socket turns the pending read into a clean close.
            // One actively serving a request keeps its socket — the reply
            // write is exactly what the drain is waiting for.
            if (!conn->in_flight.load()) conn->sock.ShutdownBoth();
          }
        }
        const int64_t elapsed_ms =
            static_cast<int64_t>(drain_timer.ElapsedSeconds() * 1e3);
        if (all_done || elapsed_ms >= options_.drain_timeout_ms) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      drained_clean_.store(all_done);
      drain_duration_ms_.store(
          static_cast<int64_t>(drain_timer.ElapsedSeconds() * 1e3));
    }
    RequestStop();  // hard-stop any stragglers past the deadline
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(finished_mu_);
      reaper_stop_ = true;
    }
    finished_cv_.notify_all();
    if (reaper_thread_.joinable()) reaper_thread_.join();
    listener_.Close();
    std::vector<std::unique_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns.swap(conns_);
    }
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  } else {
    if (!stop_requested_.load() && options_.drain_timeout_ms > 0) {
      // Drain phase: the reactor stops accepting, stops reading, serves the
      // requests it already decoded, flushes every write buffer, and hangs
      // connections up as they go idle; this thread just watches the clock.
      draining_.store(true);
      wake_.Signal();
      WallTimer drain_timer;
      for (;;) {
        if (drain_complete_.load() || stop_requested_.load()) break;
        const int64_t elapsed_ms =
            static_cast<int64_t>(drain_timer.ElapsedSeconds() * 1e3);
        if (elapsed_ms >= options_.drain_timeout_ms) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      drained_clean_.store(drain_complete_.load());
      drain_duration_ms_.store(
          static_cast<int64_t>(drain_timer.ElapsedSeconds() * 1e3));
    }
    RequestStop();  // hard-stop any stragglers past the deadline
    if (reactor_thread_.joinable()) reactor_thread_.join();
    listener_.Close();
    {
      std::lock_guard<std::mutex> lock(wq_mu_);
      workers_stop_ = true;
    }
    wq_cv_.notify_all();
    for (std::thread& worker : worker_threads_) {
      if (worker.joinable()) worker.join();
    }
    worker_threads_.clear();
  }
  // Every thread is quiet: demote all resident sessions so the shutdown
  // loses nothing (checkpoints carry counts, tables, and draw cursors).
  // Failures land in the registry's demote_failures counter; a daemon
  // going down cannot do more than try.
  (void)registry_->SaveAll();
}

void ServeDaemon::WaitUntilStopRequested() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_.load(); });
}

bool ServeDaemon::WaitUntilStopRequestedFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return stop_requested_.load(); });
}

int64_t ServeDaemon::active_connections() const {
  if (!options_.legacy_threads) {
    return active_conns_.load(std::memory_order_relaxed);
  }
  int64_t active = 0;
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->done.load()) active++;
  }
  return active;
}

// --- event-driven runtime ---------------------------------------------------

void ServeDaemon::ReactorLoop() {
  std::vector<Poller::Event> events;
  while (!stop_requested_.load()) {
    Result<size_t> waited = poller_.Wait(&events, kMaxPollEvents, 50);
    if (!waited.ok()) break;  // poller broken; fall through to RequestStop
    if (stop_requested_.load()) break;
    // Drain the wake pipe BEFORE swapping the flush list. A worker does
    // "push flush entry, then Signal()": a Signal landing after this drain
    // but before the swap leaves its entry in the swapped list; one landing
    // after the swap leaves the pipe readable so the next Wait returns
    // immediately. Draining after the swap instead would strand such an
    // entry for a full poll timeout.
    wake_.Drain();
    // Serve worker flush requests first so finished replies head out before
    // new requests come in.
    {
      std::vector<std::shared_ptr<RConn>> flushes;
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        flushes.swap(flush_list_);
      }
      for (const std::shared_ptr<RConn>& conn : flushes) FlushConn(conn);
    }
    for (const Poller::Event& ev : events) {
      if (ev.tag == kWakeTag) continue;  // drained above
      if (ev.tag == kListenerTag) {
        if (!draining_.load()) AcceptReady();
        continue;
      }
      auto it = rconns_.find(ev.tag);
      if (it == rconns_.end()) continue;  // destroyed earlier this batch
      std::shared_ptr<RConn> conn = it->second;
      if (ev.events & Poller::kWritable) FlushConn(conn);
      if (conn->dead) continue;
      if (ev.events & Poller::kReadable) ReadReady(conn);
    }
    ScanIdle(NowMicros());
    if (draining_.load()) DrainTick();
  }
  RequestStop();  // covers the poller-failure exit
  // Epilogue: this thread owns every socket, and it is leaving — close them
  // all. Workers still finishing requests only touch mu-guarded queues on
  // the (heap-held) RConn, never the socket.
  for (auto& entry : rconns_) {
    entry.second->dead = true;
    (void)poller_.Remove(entry.second->sock.fd());
    entry.second->sock.Close();
  }
  rconns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
}

void ServeDaemon::AcceptReady() {
  for (;;) {
    if (options_.max_connections > 0 &&
        rconns_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Accept-side backpressure: park the listener; excess connects wait
      // in the kernel backlog until a slot frees (MaybeResumeAccept).
      if (!accept_parked_) {
        accept_parked_ = true;
        accept_backpressure_.fetch_add(1, std::memory_order_relaxed);
        (void)poller_.Modify(listener_.fd(), 0, kListenerTag);
      }
      return;
    }
    SocketFd sock;
    if (!TryAccept(listener_, &sock).ok()) return;  // listener closed
    if (!sock.valid()) return;                      // nothing pending
    if (!SetNonBlocking(sock, true).ok()) continue;  // drop broken socket
    auto conn = std::make_shared<RConn>();
    conn->sock = std::move(sock);
    conn->id = next_conn_id_++;
    conn->last_read_us = NowMicros();
    if (!poller_.Add(conn->sock.fd(), Poller::kReadable, conn->id).ok()) {
      continue;  // conn destructor closes the socket
    }
    rconns_.emplace(conn->id, conn);
    active_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeDaemon::MaybeResumeAccept() {
  if (!accept_parked_ || draining_.load() || stop_requested_.load()) return;
  if (options_.max_connections > 0 &&
      rconns_.size() >= static_cast<size_t>(options_.max_connections)) {
    return;
  }
  accept_parked_ = false;
  (void)poller_.Modify(listener_.fd(), Poller::kReadable, kListenerTag);
}

void ServeDaemon::ReadReady(const std::shared_ptr<RConn>& conn) {
  if (conn->dead || conn->read_closed || conn->read_eof || conn->read_paused) {
    return;
  }
  size_t total = 0;
  bool eof = false;
  bool broken = false;
  while (total < kMaxReadPerEvent) {
    const size_t old_size = conn->inbuf.size();
    conn->inbuf.resize(old_size + kReadChunk);
    size_t n = 0;
    const Status read = ReadSome(conn->sock, &conn->inbuf[old_size],
                                 kReadChunk, &n);
    conn->inbuf.resize(old_size + n);
    if (!read.ok()) {
      if (read.code() == StatusCode::kNotFound) {
        eof = true;  // clean close / half-close
      } else {
        broken = true;  // reset or worse: nobody left to reply to
      }
      break;
    }
    if (n == 0) break;  // EAGAIN: drained the socket
    total += n;
    if (n < kReadChunk) break;  // short read: drained the socket
  }
  if (broken) {
    DestroyConn(conn);
    return;
  }
  if (total > 0) {
    bytes_in_.fetch_add(static_cast<int64_t>(total),
                        std::memory_order_relaxed);
    conn->last_read_us = NowMicros();
  }
  if (eof) {
    conn->read_eof = true;
    UpdateInterest(conn);
  }
  if (total > 0 || eof) ParseFrames(conn);
}

void ServeDaemon::ParseFrames(const std::shared_ptr<RConn>& conn) {
  if (conn->dead) return;
  const int cap = options_.max_inflight_per_conn;
  std::vector<PendingReq> parsed;
  Status violation = Status::Ok();
  bool stopped_for_cap = false;
  const int64_t now = NowMicros();
  if (!conn->read_closed) {
    int inflight_snapshot = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      inflight_snapshot = conn->inflight;
    }
    for (;;) {
      if (cap > 0 &&
          inflight_snapshot + static_cast<int>(parsed.size()) >= cap) {
        // In-flight cap: leave the rest buffered (and stop reading, below);
        // FlushConn re-enters here as replies drain.
        stopped_for_cap = true;
        break;
      }
      const size_t avail = conn->inbuf.size() - conn->in_off;
      if (avail < kFrameHeaderBytes) break;
      MsgType type = MsgType::kReply;
      uint32_t payload_len = 0;
      const Status header = DecodeFrameHeader(
          conn->inbuf.data() + conn->in_off, avail, &type, &payload_len);
      if (!header.ok()) {
        violation = header;
        break;
      }
      if (avail < kFrameHeaderBytes + payload_len) break;  // incomplete
      if (type == MsgType::kReply) {
        violation =
            Status::Invalid("serve: kReply is not a valid request type");
        break;
      }
      PendingReq req;
      req.frame.type = type;
      req.frame.payload.assign(conn->inbuf, conn->in_off + kFrameHeaderBytes,
                               payload_len);
      req.enqueue_us = now;
      parsed.push_back(std::move(req));
      conn->in_off += kFrameHeaderBytes + payload_len;
    }
  }
  if (conn->in_off == conn->inbuf.size()) {
    conn->inbuf.clear();
    conn->in_off = 0;
  } else if (conn->in_off > kCompactThreshold) {
    conn->inbuf.erase(0, conn->in_off);
    conn->in_off = 0;
  }
  bool schedule = false;
  bool pause = stopped_for_cap;
  if (!parsed.empty()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    for (PendingReq& req : parsed) {
      conn->pending.push_back(std::move(req));
      conn->inflight++;
      queue_depth_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!conn->scheduled) {
      conn->scheduled = true;
      schedule = true;
    }
    if (cap > 0 && conn->inflight >= cap) pause = true;
  }
  if (schedule) {
    {
      std::lock_guard<std::mutex> lock(wq_mu_);
      wq_.push_back(conn);
    }
    wq_cv_.notify_one();
  }
  if (!violation.ok()) {
    // The error reply queues behind the pipelined requests before it, so
    // the peer still gets every answer it was owed, in order.
    QueueTeardown(conn, std::move(violation));
    return;
  }
  if (pause && !conn->read_paused) {
    conn->read_paused = true;
    UpdateInterest(conn);
  }
  if (conn->read_eof && !conn->read_closed && !stopped_for_cap) {
    // Every byte the peer ever sent is now parsed. A leftover tail is a
    // mid-frame disconnect; otherwise serve what arrived and hang up once
    // the replies flush (half-close pipelining works).
    const size_t leftover = conn->inbuf.size() - conn->in_off;
    if (leftover > 0) {
      QueueTeardown(conn,
                    Status::DataLoss("frame: connection closed mid-frame"));
      return;
    }
    conn->read_closed = true;
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
      idle = conn->pending.empty() && conn->inflight == 0 &&
             conn->outbox.empty();
    }
    if (idle && conn->wbuf.empty()) {
      DestroyConn(conn);  // satellite fix: EOF reclaims the slot NOW
      return;
    }
    UpdateInterest(conn);
  }
}

void ServeDaemon::QueueTeardown(const std::shared_ptr<RConn>& conn,
                                Status error) {
  conn->read_closed = true;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    PendingReq teardown;
    teardown.teardown = true;
    teardown.error = std::move(error);
    teardown.enqueue_us = NowMicros();
    conn->pending.push_back(std::move(teardown));
    conn->inflight++;
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    if (!conn->scheduled) {
      conn->scheduled = true;
      schedule = true;
    }
  }
  UpdateInterest(conn);
  if (schedule) {
    {
      std::lock_guard<std::mutex> lock(wq_mu_);
      wq_.push_back(conn);
    }
    wq_cv_.notify_one();
  }
}

void ServeDaemon::FlushConn(const std::shared_ptr<RConn>& conn) {
  if (conn->dead) return;
  for (;;) {
    if (conn->wbuf.empty()) {
      bool close_flag = false;
      bool stop_flag = false;
      bool have_frame = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->outbox.empty()) {
          conn->wbuf = std::move(conn->outbox.front());
          conn->outbox.pop_front();
          conn->wbuf_off = 0;
          have_frame = true;
        } else {
          // Close only once every decoded request has been answered AND
          // flushed: an empty outbox alone means nothing while workers are
          // still producing replies for this connection (half-close with
          // pipelined requests).
          close_flag = conn->close_after_flush && conn->pending.empty() &&
                       conn->inflight == 0;
          stop_flag = conn->stop_after_flush;
        }
      }
      if (!have_frame) {
        if (conn->want_write) {
          conn->want_write = false;
          UpdateInterest(conn);
        }
        if (stop_flag) RequestStop();
        if (close_flag) DestroyConn(conn);
        return;
      }
    }
    size_t n = 0;
    const Status wrote =
        WriteSome(conn->sock, conn->wbuf.data() + conn->wbuf_off,
                  conn->wbuf.size() - conn->wbuf_off, &n);
    if (!wrote.ok()) {
      DestroyConn(conn);  // peer gone; best-effort is over
      return;
    }
    if (n == 0) {
      // Kernel send buffer full: let the poller call back when writable.
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateInterest(conn);
      }
      return;
    }
    bytes_out_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    conn->wbuf_off += n;
    if (conn->wbuf_off < conn->wbuf.size()) continue;
    conn->wbuf.clear();
    conn->wbuf_off = 0;
    // One reply fully flushed: release its in-flight slot and resume
    // reading if the cap had paused this connection.
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->inflight--;
      resume = conn->read_paused && !conn->read_closed &&
               (options_.max_inflight_per_conn <= 0 ||
                conn->inflight < options_.max_inflight_per_conn);
    }
    if (resume) {
      conn->read_paused = false;
      UpdateInterest(conn);
      // Frames already buffered while paused parse without a new read.
      ParseFrames(conn);
      if (conn->dead) return;
    }
  }
}

void ServeDaemon::UpdateInterest(const std::shared_ptr<RConn>& conn) {
  if (conn->dead) return;
  uint32_t events = 0;
  if (!conn->read_paused && !conn->read_closed && !conn->read_eof) {
    events |= Poller::kReadable;
  }
  if (conn->want_write) events |= Poller::kWritable;
  (void)poller_.Modify(conn->sock.fd(), events, conn->id);
}

void ServeDaemon::DestroyConn(const std::shared_ptr<RConn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  {
    // Requests decoded but never served die with the connection; keep the
    // queue-depth gauge honest. A worker mid-request is unaffected — it
    // only touches mu-guarded queues and will find them empty.
    std::lock_guard<std::mutex> lock(conn->mu);
    queue_depth_.fetch_sub(static_cast<int64_t>(conn->pending.size()),
                           std::memory_order_relaxed);
    conn->pending.clear();
  }
  (void)poller_.Remove(conn->sock.fd());
  conn->sock.Close();
  rconns_.erase(conn->id);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  MaybeResumeAccept();
}

void ServeDaemon::ScanIdle(int64_t now_us) {
  if (options_.read_timeout_ms <= 0) return;
  if (now_us - last_idle_scan_us_ < kIdleScanPeriodUs) return;
  last_idle_scan_us_ = now_us;
  const int64_t budget_us =
      static_cast<int64_t>(options_.read_timeout_ms) * 1000;
  std::vector<std::shared_ptr<RConn>> conns;
  conns.reserve(rconns_.size());
  for (const auto& entry : rconns_) conns.push_back(entry.second);
  for (const std::shared_ptr<RConn>& conn : conns) {
    if (conn->dead || conn->read_closed || conn->read_eof ||
        conn->timeout_fired) {
      continue;
    }
    bool waiting_on_peer = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      waiting_on_peer = conn->pending.empty() && conn->inflight == 0;
    }
    if (!waiting_on_peer) continue;  // we owe replies; the peer is fine
    if (now_us - conn->last_read_us < budget_us) continue;
    // Slow loris / silent peer: same classification as the blocking
    // runtime's SO_RCVTIMEO path.
    conn->timeout_fired = true;
    QueueTeardown(conn, Status::DeadlineExceeded("net: read timed out"));
  }
}

void ServeDaemon::DrainTick() {
  std::vector<std::shared_ptr<RConn>> conns;
  conns.reserve(rconns_.size());
  for (const auto& entry : rconns_) conns.push_back(entry.second);
  for (const std::shared_ptr<RConn>& conn : conns) {
    if (conn->dead) continue;
    conn->read_closed = true;  // no new requests; serve what was decoded
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
      idle = conn->pending.empty() && conn->inflight == 0 &&
             conn->outbox.empty();
    }
    if (idle && conn->wbuf.empty()) {
      DestroyConn(conn);
    } else {
      UpdateInterest(conn);
    }
  }
  if (rconns_.empty()) drain_complete_.store(true);
}

void ServeDaemon::WorkerLoop() {
  for (;;) {
    std::shared_ptr<RConn> conn;
    {
      std::unique_lock<std::mutex> lock(wq_mu_);
      wq_cv_.wait(lock, [this] { return workers_stop_ || !wq_.empty(); });
      if (wq_.empty()) return;  // workers_stop_ and nothing left
      conn = std::move(wq_.front());
      wq_.pop_front();
    }
    // Serve this connection's queue to empty. Only one worker holds a given
    // connection at a time (the scheduled flag), so requests are answered
    // strictly in arrival order — the pipelining contract.
    for (;;) {
      PendingReq req;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->pending.empty()) {
          conn->scheduled = false;
          break;
        }
        req = std::move(conn->pending.front());
        conn->pending.pop_front();
      }
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      const int64_t start_us = NowMicros();
      std::string encoded;
      bool stop_after = false;
      bool close_after = false;
      bool drop_reply = false;
      if (req.teardown) {
        // Best-effort error reply for a framing violation or timeout, then
        // the connection closes once it flushes.
        ByteWriter w;
        WriteReplyStatus(req.error, &w);
        Result<std::string> frame = EncodeFrame(MsgType::kReply, w.buffer());
        if (frame.ok()) {
          encoded = std::move(frame).value();
        } else {
          drop_reply = true;  // cannot happen for a status block; belt and
        }                     // braces against an empty outbox entry
        close_after = true;
      } else {
        std::string reply = Dispatch(req.frame, &stop_after);
        reply = FinishReply(static_cast<int>(req.frame.type),
                            std::move(reply), NowMicros() - start_us,
                            start_us - req.enqueue_us);
        Result<std::string> frame = EncodeFrame(MsgType::kReply, reply);
        // The `net.write` failpoint fires here — the reply-emission seam —
        // so chaos schedules exercise the same injected write failures as
        // the blocking runtime's WriteFrame did.
        const failpoint::Eval fault = failpoint::Check("net.write");
        if (!frame.ok() || fault.action == failpoint::Action::kError) {
          drop_reply = true;
          close_after = true;
        } else {
          encoded = std::move(frame).value();
          if (fault.action == failpoint::Action::kShortWrite &&
              static_cast<size_t>(fault.arg) < encoded.size()) {
            // Injected mid-frame death: flush the truncated prefix so the
            // peer exercises its DataLoss path, then hang up.
            encoded.resize(static_cast<size_t>(fault.arg));
            close_after = true;
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (drop_reply) {
          conn->inflight--;  // this slot will never reach the flush path
        } else {
          conn->outbox.push_back(std::move(encoded));
        }
        if (close_after) conn->close_after_flush = true;
        if (stop_after) conn->stop_after_flush = true;
      }
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        flush_list_.push_back(conn);
      }
      wake_.Signal();
      if (close_after) {
        // The connection is closing; drop whatever else was pipelined
        // behind the fatal entry (by construction there is nothing, but a
        // race with a late parse costs nothing to cover).
        std::lock_guard<std::mutex> lock(conn->mu);
        queue_depth_.fetch_sub(static_cast<int64_t>(conn->pending.size()),
                               std::memory_order_relaxed);
        conn->pending.clear();
        conn->scheduled = false;
        break;
      }
    }
  }
}

// --- legacy thread-per-connection runtime -----------------------------------

void ServeDaemon::AcceptLoop() {
  while (!stop_requested_.load() && !draining_.load()) {
    Result<SocketFd> accepted = AcceptConnection(listener_);
    if (!accepted.ok()) {
      if (stop_requested_.load() || draining_.load()) return;
      // Transient accept failure: keep listening.
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(accepted).value();
    if (options_.read_timeout_ms > 0) {
      // Best effort: a connection we cannot arm the timeout on still works,
      // it is just not slow-loris-protected.
      (void)SetReadTimeout(conn->sock, options_.read_timeout_ms);
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stop_requested_.load() || draining_.load()) return;
      if (options_.max_connections > 0 &&
          conns_.size() >= static_cast<size_t>(options_.max_connections)) {
        // Overload: shed with an explicit Unavailable so the client can
        // back off (no request was read, so retrying is always safe).
        // Dropping `conn` closes the socket after the reply flushes.
        ByteWriter w;
        WriteReplyStatus(
            Status::Unavailable(
                "serve: connection limit reached; retry with backoff"),
            &w);
        (void)WriteFrame(conn->sock, MsgType::kReply, w.buffer());
        connections_shed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Connection* raw = conn.get();
      conns_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] { ServeConnection(raw); });
    }
  }
}

void ServeDaemon::ReaperLoop() {
  for (;;) {
    Connection* finished = nullptr;
    {
      std::unique_lock<std::mutex> lock(finished_mu_);
      finished_cv_.wait(
          lock, [this] { return reaper_stop_ || !finished_.empty(); });
      if (finished_.empty()) return;  // reaper_stop_ and nothing queued
      finished = finished_.front();
      finished_.pop_front();
    }
    // Extract the connection under the table lock BEFORE joining so Stop()
    // (which swaps the whole table) can never join the same thread twice:
    // whoever holds the unique_ptr owns the join.
    std::unique_ptr<Connection> owned;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].get() == finished) {
          owned = std::move(conns_[i]);
          conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
    if (owned && owned->thread.joinable()) owned->thread.join();
  }
}

void ServeDaemon::ServeConnection(Connection* conn) {
  while (!stop_requested_.load()) {
    Result<Frame> frame = ReadFrame(conn->sock);
    if (!frame.ok()) {
      // NotFound = the peer closed cleanly between frames: just hang up.
      // Everything else (bad magic/version/oversize, mid-frame close,
      // timeout) gets a best-effort error reply before the teardown so a
      // well-meaning client can see why it was dropped.
      if (frame.status().code() != StatusCode::kNotFound) {
        ByteWriter w;
        WriteReplyStatus(frame.status(), &w);
        (void)WriteFrame(conn->sock, MsgType::kReply, w.buffer());
      }
      break;
    }
    if (frame.value().type == MsgType::kReply) {
      ByteWriter w;
      WriteReplyStatus(
          Status::Invalid("serve: kReply is not a valid request type"), &w);
      (void)WriteFrame(conn->sock, MsgType::kReply, w.buffer());
      break;
    }
    bytes_in_.fetch_add(
        static_cast<int64_t>(kFrameHeaderBytes + frame.value().payload.size()),
        std::memory_order_relaxed);
    bool stop_after_reply = false;
    const int op = static_cast<int>(frame.value().type);
    WallTimer timer;
    // From here to the reply write this request is the drain's business:
    // Stop() keeps the socket open until in_flight drops (or the deadline).
    conn->in_flight.store(true);
    std::string reply = Dispatch(frame.value(), &stop_after_reply);
    reply = FinishReply(op, std::move(reply),
                        static_cast<int64_t>(timer.ElapsedSeconds() * 1e6),
                        /*queue_wait_us=*/0);
    Status sent = WriteFrame(conn->sock, MsgType::kReply, reply);
    conn->in_flight.store(false);
    if (!sent.ok()) break;
    bytes_out_.fetch_add(
        static_cast<int64_t>(kFrameHeaderBytes + reply.size()),
        std::memory_order_relaxed);
    if (stop_after_reply) {
      RequestStop();
      break;
    }
    if (draining_.load()) break;  // reply delivered; the daemon is leaving
  }
  // Shutdown only — the descriptor is closed by the Connection destructor
  // after this thread is joined (reaper or Stop()), so no other thread can
  // race a close against RequestStop()'s ShutdownBoth().
  conn->sock.ShutdownBoth();
  conn->done.store(true);
  // Hand ourselves to the reaper so the slot is reclaimed now, not when the
  // next client happens to connect.
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    finished_.push_back(conn);
  }
  finished_cv_.notify_one();
}

// --- shared dispatch --------------------------------------------------------

std::string ServeDaemon::FinishReply(int op, std::string reply,
                                     int64_t service_us,
                                     int64_t queue_wait_us) {
  if (reply.size() > kMaxPayloadBytes) {
    // The frame encoder would refuse an oversize payload and the client
    // would see only a dropped connection; send a status-only explanation
    // instead. (kSample pre-screens its counts, so this is a backstop.)
    ByteWriter oversize;
    WriteReplyStatus(Status::ResourceExhausted(
                         "serve: reply exceeds the frame payload limit"),
                     &oversize);
    reply = std::move(oversize.buffer());
  }
  // The reply payload starts with the status block; byte 0 is the status
  // code's low byte, 0 iff OK (kMaxStatusCode < 256).
  const bool ok = !reply.empty() && reply[0] == '\0';
  op_metrics_[static_cast<size_t>(op)].Record(ok, service_us, queue_wait_us);
  return reply;
}

std::string ServeDaemon::Dispatch(const Frame& frame, bool* stop_after_reply) {
  ByteWriter w;
  switch (frame.type) {
    case MsgType::kPing: {
      WriteReplyStatus(Status::Ok(), &w);
      break;
    }
    case MsgType::kRegister: {
      Result<RegisterRequest> req = DecodeRegister(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      WriteReplyStatus(
          registry_->Register(req.value().name, req.value().nfa_text,
                              req.value().horizon, req.value().seed,
                              req.value().eps, req.value().delta),
          &w);
      break;
    }
    case MsgType::kCount: {
      Result<CountRequest> req = DecodeCount(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      Result<double> count =
          registry_->CountAtLength(req.value().name, req.value().length);
      WriteReplyStatus(count.status(), &w);
      if (count.ok()) w.F64(count.value());
      break;
    }
    case MsgType::kCountState: {
      Result<CountStateRequest> req = DecodeCountState(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      Result<double> count = registry_->CountFor(
          req.value().name, req.value().state, req.value().length);
      WriteReplyStatus(count.status(), &w);
      if (count.ok()) w.F64(count.value());
      break;
    }
    case MsgType::kSample: {
      Result<SampleRequest> req = DecodeSample(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      // Reject up front any count whose reply could not fit one frame: each
      // word costs 4 + length bytes (u32 size + one byte per symbol) after
      // the fixed status/cursor/count prefix. Without this gate the daemon
      // would do the full sampling work only to drop the oversize reply —
      // or, for absurd counts, die allocating the result vector.
      const int64_t length = req.value().length;
      const int64_t per_word_bytes = 4 + (length > 0 ? length : 0);
      const int64_t reply_budget =
          static_cast<int64_t>(kMaxPayloadBytes) - 64;
      if (req.value().count > reply_budget / per_word_bytes) {
        WriteReplyStatus(
            Status::ResourceExhausted(
                "serve: sample reply would exceed the frame payload limit; "
                "request fewer words per call"),
            &w);
        break;
      }
      int64_t cursor_start = 0;
      Result<std::vector<Word>> words = registry_->SampleWords(
          req.value().name, req.value().length, req.value().count,
          &cursor_start);
      WriteReplyStatus(words.status(), &w);
      if (words.ok()) {
        w.I64(cursor_start);
        w.U64(words.value().size());
        for (const Word& word : words.value()) WriteWord(word, &w);
      }
      break;
    }
    case MsgType::kExtend: {
      Result<ExtendRequest> req = DecodeExtend(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      Result<int> level =
          registry_->ExtendTo(req.value().name, req.value().level);
      WriteReplyStatus(level.status(), &w);
      if (level.ok()) w.I32(level.value());
      break;
    }
    case MsgType::kStats: {
      WriteReplyStatus(Status::Ok(), &w);
      w.String(StatsJson());
      break;
    }
    case MsgType::kEvict: {
      Result<EvictRequest> req = DecodeEvict(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      Result<bool> was_resident = registry_->Evict(req.value().name);
      WriteReplyStatus(was_resident.status(), &w);
      if (was_resident.ok()) w.U8(was_resident.value() ? 1 : 0);
      break;
    }
    case MsgType::kUnregister: {
      Result<UnregisterRequest> req = DecodeUnregister(frame.payload);
      if (!req.ok()) {
        WriteReplyStatus(req.status(), &w);
        break;
      }
      WriteReplyStatus(registry_->Unregister(req.value().name), &w);
      break;
    }
    case MsgType::kShutdown: {
      WriteReplyStatus(Status::Ok(), &w);
      *stop_after_reply = true;
      break;
    }
    case MsgType::kReply:
    default: {
      WriteReplyStatus(Status::Invalid("serve: unhandled message type"), &w);
      break;
    }
  }
  return std::move(w.buffer());
}

std::string ServeDaemon::StatsJson() const {
  JsonObject out;
  const double uptime = uptime_.ElapsedSeconds();
  int64_t total = 0;
  for (const OpMetrics& op : op_metrics_) {
    total += op.requests.load(std::memory_order_relaxed);
  }
  out.Set("runtime", options_.legacy_threads ? "threads" : "reactor");
  out.Set("workers", worker_count_);
  out.Set("uptime_s", uptime);
  out.Set("requests", total);
  out.Set("qps", uptime > 0.0 ? static_cast<double>(total) / uptime : 0.0);
  out.Set("active_connections", active_connections());
  out.Set("max_connections",
          static_cast<int64_t>(options_.max_connections));
  out.Set("connections_shed",
          connections_shed_.load(std::memory_order_relaxed));
  out.Set("accept_backpressure",
          accept_backpressure_.load(std::memory_order_relaxed));
  out.Set("queue_depth", queue_depth_.load(std::memory_order_relaxed));
  out.Set("bytes_in", bytes_in_.load(std::memory_order_relaxed));
  out.Set("bytes_out", bytes_out_.load(std::memory_order_relaxed));
  out.Set("draining", draining_.load());
  out.Set("drain_duration_ms",
          drain_duration_ms_.load(std::memory_order_relaxed));
  out.Set("drained_clean", drained_clean_.load());
  for (int i = 1; i < kNumMsgTypes; ++i) {
    const OpMetrics& op = op_metrics_[static_cast<size_t>(i)];
    if (op.requests.load(std::memory_order_relaxed) == 0) continue;
    JsonObject per_op;
    op.RenderInto(&per_op);
    out.SetRaw(std::string("op_") + kOpNames[i], per_op.Render());
  }
  JsonObject registry_stats;
  registry_->RenderStats(&registry_stats);
  out.SetRaw("registry", registry_stats.Render());
  return out.Render();
}

}  // namespace serve
}  // namespace nfacount
