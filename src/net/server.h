// The socket-facing RPC front-end (DESIGN.md §15): a poll-based acceptor
// plus ONE serving thread that owns the ConcurrentServer's single-producer
// stream.  Received frames are decoded (src/net/framing.h), admitted
// through the existing batch-window / CircuitBreaker / BoundedEventQueue
// path, and answered when the window drains:
//
//   read -> decode -> Submit* (write-ahead admission) -> [window fills or
//   times out] -> ConcurrentServer::DrainWindow() -> one reply per request
//
// Backpressure is a protocol feature, not an accident: every shed — the
// breaker open, a full shard queue, a shard deadline — becomes a
// Throttled{retry_after_ms} reply carrying the shed reason.  The server
// never drops a request silently (fire-and-forget location updates
// excepted on the happy path; their SHEDS still get a Throttled).
//
// Threading: the serving thread is the only producer while the server
// runs — the owner must not call Submit*/EndEpoch/Checkpoint between
// Start() and Stop().  After Stop() the ConcurrentServer is the owner's
// again (Finish(), Checkpoint(), outcomes() all work as usual).
//
// Stalled clients cannot wedge the server: session sockets are
// non-blocking, unsent replies buffer per session, and a buffer past
// max_out_buffer_bytes disconnects the session (its admitted requests
// still complete — admission is journaled; only the replies are lost).

#ifndef HISTKANON_SRC_NET_SERVER_H_
#define HISTKANON_SRC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/net/framing.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"
#include "src/tgran/granularity.h"
#include "src/ts/concurrent_server.h"

namespace histkanon {
namespace net {

/// \brief Construction parameters for the serving layer.
struct RpcServerOptions {
  /// Loopback TCP port; 0 binds an ephemeral port (read it back with
  /// port() — every test uses this, no hardcoded ports).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// The window flush threshold: DrainWindow() runs once this many
  /// requests are pending, batching admission like the in-process batch
  /// engine.  1 = serve every request immediately (lowest latency).
  size_t max_window_requests = 64;
  /// An open window with pending requests also flushes after this long
  /// without new traffic, so a lone blocking client is never stranded.
  int64_t window_timeout_ms = 5;
  /// The backoff hint carried by every Throttled reply.
  uint32_t retry_after_ms = 50;
  /// Per-session unsent-reply cap; beyond it the session is declared
  /// stalled and disconnected.
  size_t max_out_buffer_bytes = 4u << 20;
  /// Resolves granularity names inside wire LBQID registrations
  /// (kRegisterLbqid / kSetRules frames); nullptr rejects those frames.
  const tgran::GranularityRegistry* granularities = nullptr;
  /// Optional metrics (net_* counters/gauges); not owned.
  obs::Registry* registry = nullptr;
};

/// \brief The networked serving layer in front of a ConcurrentServer.
class RpcServer {
 public:
  /// `server` is not owned and must outlive this object.
  RpcServer(ts::ConcurrentServer* server, RpcServerOptions options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and starts the serving thread.
  common::Status Start();

  /// Flushes the open window, closes every session, and joins the serving
  /// thread.  Idempotent.  The ConcurrentServer stays live (not Finished).
  void Stop();

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  // -- Serving-thread counters (atomic: readable from any thread).

  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t sessions_active() const {
    return sessions_active_.load(std::memory_order_relaxed);
  }
  uint64_t frames_received() const {
    return frames_in_.load(std::memory_order_relaxed);
  }
  uint64_t replies_sent() const {
    return replies_out_.load(std::memory_order_relaxed);
  }
  /// Throttled replies issued (front-end sheds + shard deadline sheds).
  uint64_t throttled() const {
    return throttled_.load(std::memory_order_relaxed);
  }
  /// Sessions dropped for hostile bytes (desync, bad body, bad type).
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Sessions dropped for any reason (peer reset, stall, protocol error).
  uint64_t disconnects() const {
    return disconnects_.load(std::memory_order_relaxed);
  }
  /// DrainWindow() rounds run.
  uint64_t windows_flushed() const {
    return windows_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection's state, keyed by a never-reused id (a
  /// pending reply must not chase a recycled fd).
  struct Session {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    /// Unsent bytes (wire magic, then replies), drained on POLLOUT.
    std::string out;
    size_t out_offset = 0;
    /// True once a fatal Error reply is queued: close after out drains.
    bool doomed = false;
  };

  /// One admitted-but-unanswered request: which session asked, under
  /// which client request id, and the trace id admission allocated.
  struct PendingReply {
    size_t ordinal = 0;
    uint64_t session = 0;
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
  };

  void ServeLoop();
  void AcceptNew();
  /// Reads whatever the socket has; decodes and handles complete frames.
  void ReadSession(Session& session);
  void HandleFrame(Session& session, const Frame& frame);
  /// Closes the window: DrainWindow() on the ConcurrentServer, then one
  /// reply per pending request (sessions that died meanwhile are skipped).
  void FlushWindow();
  /// Queues a reply frame on the session (doom-on-overflow).
  void QueueReply(Session& session, uint64_t trace_id, const ReplyMsg& reply);
  /// Queues a fatal Error reply and dooms the session.
  void ProtocolError(Session& session, uint64_t request_id,
                     const std::string& message);
  /// Sends as much of the out buffer as the socket takes right now.
  void TryFlushOut(Session& session);
  void CloseSession(uint64_t id);
  Session* FindSession(uint64_t id);

  /// Decodes a client frame's journal event (DecodeClientEvent) and
  /// submits it: register/LBQID/rules get an ack (or Throttled), an
  /// update is answered only when shed, a request joins the open window.
  void HandleClientEvent(Session& session, const Frame& frame);

  ts::ConcurrentServer* const server_;
  const RpcServerOptions options_;

  int listen_fd_ = -1;
  /// Self-pipe: Stop() writes a byte to wake the poll loop promptly.
  int wake_fds_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;

  // Serving-thread state (no locks: only ServeLoop touches these).
  std::map<uint64_t, Session> sessions_;
  uint64_t next_session_id_ = 1;
  std::vector<PendingReply> pending_;
  std::vector<uint64_t> to_close_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> sessions_active_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> replies_out_{0};
  std::atomic<uint64_t> throttled_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> disconnects_{0};
  std::atomic<uint64_t> windows_{0};

  // Optional metric handles (registry-owned).
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
  obs::Counter* frames_counter_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Counter* throttled_counter_ = nullptr;
  obs::Counter* protocol_errors_counter_ = nullptr;
  obs::Counter* disconnects_counter_ = nullptr;
};

}  // namespace net
}  // namespace histkanon

#endif  // HISTKANON_SRC_NET_SERVER_H_
