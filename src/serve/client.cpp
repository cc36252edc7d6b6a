#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace nfacount {
namespace serve {

namespace {

/// Rejects reply bodies with unconsumed bytes (protocol mismatch).
Status RejectTrailing(const ByteReader& r) {
  if (r.remaining() != 0) {
    return Status::DataLoss("reply body has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Result<ServeClient> ServeClient::Connect(uint16_t port) {
  Result<SocketFd> sock = ConnectLoopback(port);
  if (!sock.ok()) return sock.status();
  return ServeClient(std::move(sock).value());
}

Result<ServeClient> ServeClient::ConnectWithRetry(uint16_t port,
                                                  const RetryPolicy& policy) {
  const int attempts = std::max(1, policy.max_attempts);
  const int64_t base = std::max(1, policy.base_delay_ms);
  const int64_t cap = std::max<int64_t>(base, policy.max_delay_ms);
  Rng rng(policy.seed != 0 ? policy.seed : 0x7e7291e5u);
  int64_t prev_delay = base;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter: uniform in [base, 3×previous], capped — grows
      // roughly exponentially, never synchronizes across clients.
      const int64_t hi = std::min(cap, prev_delay * 3);
      const int64_t delay = base + static_cast<int64_t>(rng.UniformU64(
                                       static_cast<uint64_t>(
                                           std::max<int64_t>(1, hi - base + 1))));
      prev_delay = delay;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    Result<ServeClient> connected = Connect(port);
    if (!connected.ok()) {
      last = connected.status();  // daemon down or restarting: retryable
      continue;
    }
    ServeClient client = std::move(connected).value();
    // Probe: a shed connection answers the ping with the daemon's queued
    // Unavailable greeting (or dies before it). Only a live, accepted
    // connection pings OK.
    Status probe = client.Ping();
    if (probe.ok()) return client;
    if (probe.code() == StatusCode::kUnavailable ||
        probe.code() == StatusCode::kNotFound ||
        probe.code() == StatusCode::kDataLoss) {
      last = probe;  // shed (or its connection-reset shadow): retryable
      continue;
    }
    return probe;  // a real error — retrying would just repeat it
  }
  return last.ok() ? Status::Unavailable("client: retry attempts exhausted")
                   : last;
}

Status ServeClient::SendRequest(MsgType type, const std::string& payload) {
  return WriteFrame(sock_, type, payload);
}

Result<std::string> ServeClient::ReadReplyBody() {
  Result<Frame> reply = ReadFrame(sock_);
  if (!reply.ok()) {
    // A clean close where a reply was due means the request died in flight.
    if (reply.status().code() == StatusCode::kNotFound) {
      return Status::DataLoss("client: connection closed before the reply");
    }
    return reply.status();
  }
  if (reply.value().type != MsgType::kReply) {
    return Status::DataLoss("client: expected a kReply frame");
  }
  ByteReader r(reply.value().payload.data(), reply.value().payload.size());
  Status remote = Status::Ok();
  NFA_RETURN_NOT_OK(ReadReplyStatus(&r, &remote));
  NFA_RETURN_NOT_OK(remote);
  std::string body(reply.value().payload.data() +
                       (reply.value().payload.size() - r.remaining()),
                   r.remaining());
  return body;
}

Status ServeClient::SendCount(const std::string& name, int length) {
  CountRequest req;
  req.name = name;
  req.length = length;
  return SendRequest(MsgType::kCount, EncodeCount(req));
}

Result<double> ServeClient::ReadCountReply() {
  Result<std::string> body = ReadReplyBody();
  if (!body.ok()) return body.status();
  ByteReader r(body.value().data(), body.value().size());
  double estimate = 0.0;
  NFA_RETURN_NOT_OK(r.F64(&estimate));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return estimate;
}

Result<std::string> ServeClient::RoundTrip(MsgType type,
                                           const std::string& payload) {
  NFA_RETURN_NOT_OK(SendRequest(type, payload));
  return ReadReplyBody();
}

Status ServeClient::Ping() {
  return RoundTrip(MsgType::kPing, std::string()).status();
}

Status ServeClient::Register(const RegisterRequest& req) {
  return RoundTrip(MsgType::kRegister, EncodeRegister(req)).status();
}

Result<double> ServeClient::CountAtLength(const std::string& name,
                                          int length) {
  NFA_RETURN_NOT_OK(SendCount(name, length));
  return ReadCountReply();
}

Result<double> ServeClient::CountFor(const std::string& name, int32_t state,
                                     int length) {
  CountStateRequest req;
  req.name = name;
  req.state = state;
  req.length = length;
  NFA_RETURN_NOT_OK(SendRequest(MsgType::kCountState, EncodeCountState(req)));
  return ReadCountReply();  // the same F64 reply body as kCount
}

Result<SampleResult> ServeClient::SampleWords(const std::string& name,
                                              int length, int64_t count) {
  SampleRequest req;
  req.name = name;
  req.length = length;
  req.count = count;
  Result<std::string> body = RoundTrip(MsgType::kSample, EncodeSample(req));
  if (!body.ok()) return body.status();
  ByteReader r(body.value().data(), body.value().size());
  SampleResult result;
  NFA_RETURN_NOT_OK(r.I64(&result.cursor_start));
  uint64_t n = 0;
  NFA_RETURN_NOT_OK(r.U64(&n));
  if (n > kMaxPayloadBytes) {
    return Status::DataLoss("reply: word count corrupt");
  }
  result.words.resize(static_cast<size_t>(n));
  for (Word& word : result.words) {
    NFA_RETURN_NOT_OK(ReadWord(&r, &word));
  }
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return result;
}

Result<int> ServeClient::ExtendTo(const std::string& name, int level) {
  ExtendRequest req;
  req.name = name;
  req.level = level;
  Result<std::string> body = RoundTrip(MsgType::kExtend, EncodeExtend(req));
  if (!body.ok()) return body.status();
  ByteReader r(body.value().data(), body.value().size());
  int32_t computed = 0;
  NFA_RETURN_NOT_OK(r.I32(&computed));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return static_cast<int>(computed);
}

Result<bool> ServeClient::Evict(const std::string& name) {
  EvictRequest req;
  req.name = name;
  Result<std::string> body = RoundTrip(MsgType::kEvict, EncodeEvict(req));
  if (!body.ok()) return body.status();
  ByteReader r(body.value().data(), body.value().size());
  uint8_t flag = 0;
  NFA_RETURN_NOT_OK(r.U8(&flag));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return flag != 0;
}

Status ServeClient::Unregister(const std::string& name) {
  UnregisterRequest req;
  req.name = name;
  return RoundTrip(MsgType::kUnregister, EncodeUnregister(req)).status();
}

Result<std::string> ServeClient::Stats() {
  Result<std::string> body = RoundTrip(MsgType::kStats, std::string());
  if (!body.ok()) return body.status();
  ByteReader r(body.value().data(), body.value().size());
  std::string json;
  NFA_RETURN_NOT_OK(r.String(&json, kMaxPayloadBytes));
  NFA_RETURN_NOT_OK(RejectTrailing(r));
  return json;
}

Status ServeClient::Shutdown() {
  return RoundTrip(MsgType::kShutdown, std::string()).status();
}

}  // namespace serve
}  // namespace nfacount
