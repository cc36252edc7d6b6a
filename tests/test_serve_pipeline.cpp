// Event-driven serve runtime (reactor + bounded worker pool): pipelined
// requests answer strictly in request order and bit-identical at every
// worker count; partial writes, half-closes, mid-frame disconnects, and
// in-flight caps all resolve without wedging or leaking a connection; the
// accept-side backpressure parks the listener instead of shedding; and the
// PR 9 drain contract survives the runtime swap. Runs under TSan in CI
// (ctest -R 'test_serve'): this suite is the data-race probe for the
// reactor / worker-pool seam.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "test_seed.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using serve::Frame;
using serve::MsgType;
using serve::ReadFrame;
using serve::RegistryOptions;
using serve::ServeClient;
using serve::ServeDaemon;
using serve::ServerOptions;
using serve::SessionRegistry;
using serve::WriteFrame;
using testing_support::TestSeed;

constexpr int kHorizon = 7;

/// Polls `cond` every 2 ms for up to `timeout_ms`; true iff it held.
bool PollUntil(int timeout_ms, const std::function<bool()>& cond) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// A deterministic test automaton in the io.hpp text format.
std::string TestNfaText() {
  Rng rng(TestSeed(1501));
  return NfaToText(RandomNfa(6, 0.3, 0.3, rng));
}

/// Registry with one session "s" at kHorizon, plus the reference counts at
/// every length (registry answers are deterministic in (text, seed), so a
/// second identical registry is its own reference).
struct Fixture {
  Fixture() : registry(RegistryOptions()) {
    const std::string text = TestNfaText();
    EXPECT_TRUE(
        registry.Register("s", text, kHorizon, TestSeed(1502), 0.3, 0.2).ok());
    for (int length = 0; length <= kHorizon; ++length) {
      Result<double> want = registry.CountAtLength("s", length);
      EXPECT_TRUE(want.ok());
      counts.push_back(want.value());
    }
  }
  SessionRegistry registry;
  std::vector<double> counts;
};

TEST(Pipeline, RepliesComeBackInRequestOrder) {
  Fixture fx;
  ServerOptions options;
  options.workers = 2;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(2, daemon.worker_count());

  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());
  // All requests hit the wire before any reply is read; the k-th reply must
  // answer the k-th request.
  const int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (int length = 0; length <= kHorizon; ++length) {
      ASSERT_TRUE(client->SendCount("s", length).ok());
    }
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int length = 0; length <= kHorizon; ++length) {
      Result<double> got = client->ReadCountReply();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(fx.counts[static_cast<size_t>(length)], got.value())
          << "round=" << round << " length=" << length;
    }
  }
  daemon.Stop();
}

// The raw reply bytes — not just the decoded values — are identical no
// matter how many workers serve the connection: per-connection in-order
// scheduling makes the pool invisible on the wire.
TEST(Pipeline, ReplyBytesIdenticalAcrossWorkerCounts) {
  std::vector<std::string> transcripts;
  for (int workers : {1, 4}) {
    Fixture fx;
    ServerOptions options;
    options.workers = workers;
    ServeDaemon daemon(&fx.registry, options);
    ASSERT_TRUE(daemon.Start().ok());
    Result<SocketFd> sock = ConnectLoopback(daemon.port());
    ASSERT_TRUE(sock.ok());
    for (int length = 0; length <= kHorizon; ++length) {
      serve::CountRequest req;
      req.name = "s";
      req.length = length;
      ASSERT_TRUE(WriteFrame(sock.value(), MsgType::kCount,
                             serve::EncodeCount(req))
                      .ok());
    }
    std::string transcript;
    for (int length = 0; length <= kHorizon; ++length) {
      Result<Frame> reply = ReadFrame(sock.value());
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(MsgType::kReply, reply.value().type);
      transcript += reply.value().payload;
      transcript.push_back('\n');
    }
    transcripts.push_back(std::move(transcript));
    daemon.Stop();
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

TEST(Pipeline, MixedOpsKeepOrderAndErrorsDoNotKillTheConnection) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->SendRequest(MsgType::kPing, "").ok());
  ASSERT_TRUE(client->SendCount("s", 3).ok());
  ASSERT_TRUE(client->SendCount("missing", 3).ok());  // application error
  ASSERT_TRUE(client->SendRequest(MsgType::kStats, "").ok());

  EXPECT_TRUE(client->ReadReplyBody().ok());  // ping
  Result<double> count = client->ReadCountReply();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(fx.counts[3], count.value());
  EXPECT_EQ(StatusCode::kNotFound, client->ReadCountReply().status().code());
  EXPECT_TRUE(client->ReadReplyBody().ok());  // stats, after the error
  EXPECT_TRUE(client->Ping().ok());           // connection still healthy
  daemon.Stop();
}

// Frame assembly across arbitrarily small reads: a peer dribbling one byte
// per segment still gets its reply.
TEST(Pipeline, ByteDribbledFrameIsAssembled) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<SocketFd> sock = ConnectLoopback(daemon.port());
  ASSERT_TRUE(sock.ok());

  serve::CountRequest req;
  req.name = "s";
  req.length = 4;
  // Build the exact frame bytes, then dribble them.
  Result<std::string> frame =
      serve::EncodeFrame(MsgType::kCount, serve::EncodeCount(req));
  ASSERT_TRUE(frame.ok());
  for (char byte : frame.value()) {
    ASSERT_TRUE(WriteFull(sock.value(), &byte, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<Frame> reply = ReadFrame(sock.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(MsgType::kReply, reply.value().type);
  daemon.Stop();
}

// Connection reaping is immediate, not lazy: a closed connection leaves
// active_connections() without any new connection arriving to flush it out.
TEST(Pipeline, ClosedConnectionsAreReclaimedImmediately) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());

  {  // clean close between frames
    Result<ServeClient> client = ServeClient::Connect(daemon.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping().ok());
    EXPECT_EQ(1, daemon.active_connections());
  }
  EXPECT_TRUE(PollUntil(2000, [&] { return daemon.active_connections() == 0; }))
      << "clean close not reclaimed, active="
      << daemon.active_connections();

  {  // mid-frame disconnect
    Result<SocketFd> sock = ConnectLoopback(daemon.port());
    ASSERT_TRUE(sock.ok());
    const char half[6] = {'N', 'F', 'S', 'V', 2, 0};
    ASSERT_TRUE(WriteFull(sock.value(), half, sizeof(half)).ok());
    EXPECT_TRUE(
        PollUntil(2000, [&] { return daemon.active_connections() == 1; }));
  }
  EXPECT_TRUE(PollUntil(2000, [&] { return daemon.active_connections() == 0; }))
      << "mid-frame close not reclaimed";
  daemon.Stop();
}

// The in-flight cap bounds decoded-but-unanswered requests per connection:
// a client pipelining far past the cap just experiences backpressure — every
// reply still arrives, in order, bit-identical.
TEST(Pipeline, InflightCapBackpressuresWithoutLosingReplies) {
  Fixture fx;
  ServerOptions options;
  options.workers = 2;
  options.max_inflight_per_conn = 4;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  const int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->SendCount("s", i % (kHorizon + 1)).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    Result<double> got = client->ReadCountReply();
    ASSERT_TRUE(got.ok()) << "request " << i << ": "
                          << got.status().ToString();
    EXPECT_EQ(fx.counts[static_cast<size_t>(i % (kHorizon + 1))], got.value())
        << "request " << i;
  }
  daemon.Stop();
}

// EOF is not death: a peer may write all its requests, half-close, and
// collect every reply off the still-open other half.
TEST(Pipeline, HalfClosedConnectionStillGetsAllReplies) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  const int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->SendCount("s", i).ok());
  }
  client->socket().ShutdownWrite();
  for (int i = 0; i < kRequests; ++i) {
    Result<double> got = client->ReadCountReply();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(fx.counts[static_cast<size_t>(i)], got.value());
  }
  // After the owed replies the daemon hangs up cleanly.
  char byte = 0;
  EXPECT_EQ(StatusCode::kNotFound,
            ReadFull(client->socket(), &byte, 1).code());
  daemon.Stop();
}

// max_connections in the reactor runtime is accept-side backpressure: the
// listener parks at the cap, a waiting connect sits in the kernel backlog
// (never shed), and is served as soon as a slot frees.
TEST(Pipeline, AcceptBackpressureParksListenerAndResumes) {
  Fixture fx;
  ServerOptions options;
  options.max_connections = 1;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());

  Result<ServeClient> first = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Ping().ok());
  EXPECT_TRUE(PollUntil(
      2000, [&] { return daemon.accept_backpressure_events() >= 1; }));

  // The second connect lands in the backlog; its request waits, unanswered
  // but not rejected, until the first connection goes away.
  Result<SocketFd> second = ConnectLoopback(daemon.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(WriteFrame(second.value(), MsgType::kPing, "").ok());
  { ServeClient discard = std::move(first).value(); }  // closes slot holder
  Result<Frame> reply = ReadFrame(second.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(MsgType::kReply, reply.value().type);
  const std::string stats = daemon.StatsJson();
  EXPECT_NE(std::string::npos, stats.find("\"accept_backpressure\"")) << stats;
  // Backpressure, not shedding: nobody was turned away.
  EXPECT_NE(std::string::npos, stats.find("\"connections_shed\":0")) << stats;
  daemon.Stop();
}

// Many clients, each pipelining, against a small pool: every answer on
// every connection is the reference answer. The TSan target for the
// reactor / worker seam.
TEST(Pipeline, WorkerPoolServesManyPipeliningClients) {
  Fixture fx;
  ServerOptions options;
  options.workers = 4;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Result<ServeClient> client = ServeClient::Connect(daemon.port());
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      for (int round = 0; round < 4; ++round) {
        const int depth = 1 + (c + round) % 6;
        for (int i = 0; i < depth; ++i) {
          if (!client->SendCount("s", (c + i) % (kHorizon + 1)).ok()) {
            failed.store(true);
            return;
          }
        }
        for (int i = 0; i < depth; ++i) {
          Result<double> got = client->ReadCountReply();
          const size_t want = static_cast<size_t>((c + i) % (kHorizon + 1));
          if (!got.ok() || got.value() != fx.counts[want]) failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load());
  daemon.Stop();
}

// kShutdown pipelined behind real work: the count answers first, the
// shutdown OK is flushed, and only then does the daemon stop.
TEST(Pipeline, ShutdownReplyFlushesAfterPipelinedWork) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->SendCount("s", 3).ok());
  ASSERT_TRUE(client->SendRequest(MsgType::kShutdown, "").ok());
  Result<double> count = client->ReadCountReply();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(fx.counts[3], count.value());
  EXPECT_TRUE(client->ReadReplyBody().ok());  // the shutdown OK
  EXPECT_TRUE(daemon.WaitUntilStopRequestedFor(2000));
  daemon.Stop();
}

// The PR 9 drain contract on the reactor: Stop() serves the decoded
// backlog, flushes every reply, and reports a clean drain.
TEST(Pipeline, DrainServesDecodedBacklogAndReportsClean) {
  Fixture fx;
  ServeDaemon daemon(&fx.registry, ServerOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());

  const int kRequests = 8;
  int64_t sent_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    serve::CountRequest req;
    req.name = "s";
    req.length = i % (kHorizon + 1);
    const std::string payload = serve::EncodeCount(req);
    sent_bytes +=
        static_cast<int64_t>(serve::kFrameHeaderBytes + payload.size());
    ASSERT_TRUE(client->SendRequest(MsgType::kCount, payload).ok());
  }
  // Wait until every frame is inside the daemon, then drain under it.
  ASSERT_TRUE(
      PollUntil(2000, [&] { return daemon.bytes_in() >= sent_bytes; }));
  std::thread stopper([&] { daemon.Stop(); });
  for (int i = 0; i < kRequests; ++i) {
    Result<double> got = client->ReadCountReply();
    ASSERT_TRUE(got.ok()) << "request " << i << ": "
                          << got.status().ToString();
    EXPECT_EQ(fx.counts[static_cast<size_t>(i % (kHorizon + 1))],
              got.value());
  }
  stopper.join();
  const std::string stats = daemon.StatsJson();
  EXPECT_NE(std::string::npos, stats.find("\"drained_clean\":true")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"drain_duration_ms\"")) << stats;
}

TEST(Pipeline, StatsExposeRuntimeQueueAndByteCounters) {
  Fixture fx;
  ServerOptions options;
  options.workers = 2;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(daemon.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->CountAtLength("s", 3).ok());

  const std::string stats = daemon.StatsJson();
  EXPECT_NE(std::string::npos, stats.find("\"runtime\":\"reactor\"")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"workers\":2")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"queue_depth\"")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"queue_wait\"")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"bytes_in\"")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"bytes_out\"")) << stats;
  EXPECT_GT(daemon.bytes_in(), 0);
  // The byte/queue gauges update just after the write syscall, so the
  // client can hold its reply a beat before the counters land: poll.
  EXPECT_TRUE(PollUntil(2000, [&] {
    return daemon.bytes_out() > 0 && daemon.queue_depth() == 0;
  }));
  daemon.Stop();
}

// The legacy thread-per-connection runtime still serves correctly behind
// its flag, and its reaper now reclaims finished connections immediately
// (the old lazy path only freed them when the NEXT connection arrived).
TEST(Pipeline, LegacyRuntimeServesAndReapsImmediately) {
  Fixture fx;
  ServerOptions options;
  options.legacy_threads = true;
  ServeDaemon daemon(&fx.registry, options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(0, daemon.worker_count());

  for (int round = 0; round < 3; ++round) {
    Result<ServeClient> client = ServeClient::Connect(daemon.port());
    ASSERT_TRUE(client.ok());
    Result<double> got = client->CountAtLength("s", 3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(fx.counts[3], got.value());
  }
  // All three connections are gone without a fourth connect to trigger the
  // old lazy sweep.
  EXPECT_TRUE(PollUntil(2000, [&] { return daemon.active_connections() == 0; }))
      << "legacy reaper left connections, active="
      << daemon.active_connections();
  EXPECT_NE(std::string::npos,
            daemon.StatsJson().find("\"runtime\":\"threads\""));
  daemon.Stop();
}

// An out-of-range worker-pool size is a Status before anything is bound or
// spawned. Only rejected values are tried: never start a daemon with
// thousands of workers.
TEST(Pipeline, OutOfRangeWorkerCountIsRejectedBeforeSpawning) {
  SessionRegistry registry((RegistryOptions()));
  for (int workers : {4097, INT_MAX}) {
    ServerOptions options;
    options.workers = workers;
    ServeDaemon daemon(&registry, options);
    const Status started = daemon.Start();
    EXPECT_EQ(StatusCode::kInvalidArgument, started.code())
        << "workers=" << workers;
    EXPECT_EQ(0, daemon.worker_count()) << "workers=" << workers;
    EXPECT_EQ(0, daemon.port()) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace nfacount
