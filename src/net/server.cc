#include "src/net/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/str.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/ts/durability.h"

namespace histkanon {
namespace net {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

RpcServer::RpcServer(ts::ConcurrentServer* server, RpcServerOptions options)
    : server_(server), options_(std::move(options)) {
  if (options_.registry != nullptr) {
    obs::Registry& registry = *options_.registry;
    sessions_gauge_ = registry.GetGauge("net_sessions_active");
    accepted_counter_ = registry.GetCounter("net_accepted_total");
    frames_counter_ = registry.GetCounter("net_frames_received_total");
    replies_counter_ = registry.GetCounter("net_replies_sent_total");
    throttled_counter_ = registry.GetCounter("net_throttled_total");
    protocol_errors_counter_ =
        registry.GetCounter("net_protocol_errors_total");
    disconnects_counter_ = registry.GetCounter("net_disconnects_total");
  }
}

RpcServer::~RpcServer() { Stop(); }

common::Status RpcServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return common::Status::FailedPrecondition("rpc server already running");
  }
  if (::pipe(wake_fds_) != 0) {
    return common::Status::Internal("pipe() failed");
  }
  SetNonBlocking(wake_fds_[0]);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    return common::Status::Internal("socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return common::Status::Internal(common::Format(
        "bind(127.0.0.1:%u) failed", unsigned{options_.port}));
  }
  if (::listen(fd, options_.backlog) != 0) {
    ::close(fd);
    return common::Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return common::Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return common::Status::OK();
}

void RpcServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Wake the poll loop so it observes running_ == false promptly.
  const char byte = 'x';
  (void)!::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

RpcServer::Session* RpcServer::FindSession(uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void RpcServer::ServeLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_sessions;  // fds[i] -> session id (0 = control)
  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_sessions.clear();
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fd_sessions.push_back(0);
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fd_sessions.push_back(0);
    for (auto& [id, session] : sessions_) {
      short events = POLLIN;
      if (session.out_offset < session.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{session.fd, events, 0});
      fd_sessions.push_back(id);
    }
    const int timeout = pending_.empty()
                            ? -1
                            : static_cast<int>(options_.window_timeout_ms);
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (!running_.load(std::memory_order_acquire)) break;
    if (ready == 0) {
      // Idle with an open window: a lone blocking client is waiting.
      FlushWindow();
      continue;
    }
    if (ready < 0) continue;  // EINTR
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) AcceptNew();
    for (size_t i = 2; i < fds.size(); ++i) {
      Session* session = FindSession(fd_sessions[i]);
      if (session == nullptr) continue;  // closed earlier this round
      if ((fds[i].revents & POLLOUT) != 0) TryFlushOut(*session);
      // Re-find: TryFlushOut may have closed a doomed/stalled session.
      session = FindSession(fd_sessions[i]);
      if (session == nullptr) continue;
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        ReadSession(*session);
      }
    }
    if (pending_.size() >= options_.max_window_requests) FlushWindow();
  }
  // Final flush: answer whatever was admitted, then close everything.  A
  // clean shutdown (no pending requests) skips the drain — it would
  // journal an epoch marker the in-process twin never writes.
  if (!pending_.empty()) FlushWindow();
  for (auto& [id, session] : sessions_) {
    TryFlushOut(session);
    HISTKANON_FAILPOINT_HIT(fail::kNetClose);
    ::close(session.fd);
  }
  sessions_.clear();
  sessions_active_.store(0, std::memory_order_relaxed);
  if (sessions_gauge_ != nullptr) sessions_gauge_->Set(0.0);
}

void RpcServer::AcceptNew() {
  for (;;) {
    const fail::Action fault = HISTKANON_FAILPOINT(fail::kNetAccept);
    if (fault.kind == fail::ActionKind::kError) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient: the acceptor never exits
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_session_id_++;
    Session& session = sessions_[id];
    session.fd = fd;
    session.id = id;
    AppendWireMagic(&session.out);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    sessions_active_.store(sessions_.size(), std::memory_order_relaxed);
    if (accepted_counter_ != nullptr) accepted_counter_->Increment();
    if (sessions_gauge_ != nullptr) {
      sessions_gauge_->Set(static_cast<double>(sessions_.size()));
    }
    TryFlushOut(session);
  }
}

void RpcServer::CloseSession(uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  HISTKANON_FAILPOINT_HIT(fail::kNetClose);
  ::close(it->second.fd);
  sessions_.erase(it);
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  sessions_active_.store(sessions_.size(), std::memory_order_relaxed);
  if (disconnects_counter_ != nullptr) disconnects_counter_->Increment();
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->Set(static_cast<double>(sessions_.size()));
  }
}

void RpcServer::TryFlushOut(Session& session) {
  while (session.out_offset < session.out.size()) {
    const fail::Action fault = HISTKANON_FAILPOINT(fail::kNetWrite);
    ssize_t n;
    if (fault.kind == fail::ActionKind::kError) {
      n = -1;
      errno = ECONNRESET;
    } else {
      n = ::send(session.fd, session.out.data() + session.out_offset,
                 session.out.size() - session.out_offset, MSG_NOSIGNAL);
    }
    if (n > 0) {
      session.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Peer vanished (or injected write fault): the session is gone; any
    // admitted requests still complete, their replies are discarded.
    CloseSession(session.id);
    return;
  }
  session.out.clear();
  session.out_offset = 0;
  if (session.doomed) CloseSession(session.id);
}

void RpcServer::QueueReply(Session& session, uint64_t trace_id,
                           const ReplyMsg& reply) {
  AppendFrame(&session.out, static_cast<uint8_t>(reply.type), trace_id,
              EncodeReply(reply));
  replies_out_.fetch_add(1, std::memory_order_relaxed);
  if (replies_counter_ != nullptr) replies_counter_->Increment();
  if (reply.type == MsgType::kThrottled) {
    throttled_.fetch_add(1, std::memory_order_relaxed);
    if (throttled_counter_ != nullptr) throttled_counter_->Increment();
  }
  if (session.out.size() - session.out_offset >
      options_.max_out_buffer_bytes) {
    // Stalled client: it is not reading its replies; disconnecting is the
    // bounded-memory alternative to buffering without limit.
    CloseSession(session.id);
  }
}

void RpcServer::ProtocolError(Session& session, uint64_t request_id,
                              const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  if (protocol_errors_counter_ != nullptr) {
    protocol_errors_counter_->Increment();
  }
  ReplyMsg reply;
  reply.type = MsgType::kError;
  reply.request_id = request_id;
  reply.code = 1;
  reply.message = message;
  session.doomed = true;
  QueueReply(session, 0, reply);
  Session* alive = FindSession(session.id);
  if (alive != nullptr) TryFlushOut(*alive);
}

void RpcServer::ReadSession(Session& session) {
  const uint64_t id = session.id;
  char buffer[16 * 1024];
  for (;;) {
    const fail::Action fault = HISTKANON_FAILPOINT(fail::kNetRead);
    ssize_t n;
    if (fault.kind == fail::ActionKind::kError) {
      n = -1;
      errno = ECONNRESET;
    } else {
      n = ::recv(session.fd, buffer, sizeof(buffer), 0);
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // Peer closed or reset (possibly mid-frame).  Nothing to roll
      // back: unadmitted bytes never touched the ConcurrentServer.
      CloseSession(id);
      return;
    }
    session.decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    Frame frame;
    for (;;) {
      const FrameDecoder::Poll poll = session.decoder.Next(&frame);
      if (poll == FrameDecoder::Poll::kNeedMore) break;
      if (poll == FrameDecoder::Poll::kError) {
        ProtocolError(session, 0, session.decoder.error());
        return;
      }
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      if (frames_counter_ != nullptr) frames_counter_->Increment();
      HandleFrame(session, frame);
      // The frame may have doomed or closed the session.
      if (FindSession(id) == nullptr || session.doomed) return;
    }
    if (static_cast<size_t>(n) < sizeof(buffer)) return;
  }
}

void RpcServer::HandleFrame(Session& session, const Frame& frame) {
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kRegister:
    case MsgType::kUpdate:
    case MsgType::kRequest:
    case MsgType::kRegisterLbqid:
    case MsgType::kSetRules:
      HandleClientEvent(session, frame);
      return;
    case MsgType::kEndEpoch:
      FlushWindow();
      return;
    default:
      ProtocolError(session, 0,
                    common::Format("unexpected frame type 0x%02x",
                                   unsigned{frame.type}));
      return;
  }
}

void RpcServer::HandleClientEvent(Session& session, const Frame& frame) {
  uint64_t request_id = 0;
  common::Result<ts::JournalEvent> event =
      DecodeClientEvent(static_cast<MsgType>(frame.type), frame.body,
                        options_.granularities, &request_id);
  if (!event.ok()) {
    ProtocolError(session, request_id, event.status().ToString());
    return;
  }
  ReplyMsg reply;
  reply.request_id = request_id;
  reply.type = MsgType::kRegisterAck;
  bool admitted = false;
  switch (event->kind) {
    case ts::JournalEvent::Kind::kUpdate:
      admitted = server_->SubmitLocationUpdate(event->user, event->point);
      // Fire-and-forget only on the happy path: a shed update is
      // reported, never silently dropped.
      if (admitted) return;
      break;
    case ts::JournalEvent::Kind::kRequest: {
      // The trace id (if causal tracing is attached) is allocated by the
      // front-end exactly when admission succeeds; observing the
      // allocator advance recovers it without peeking at the server's
      // options.
      const uint64_t tid_before = server_->next_trace_id();
      const size_t ordinal =
          server_->SubmitRequest(event->user, event->point, event->service_id,
                                 std::move(event->data));
      if (ordinal == ts::ConcurrentServer::kShedSubmission) break;
      PendingReply pending;
      pending.ordinal = ordinal;
      pending.session = session.id;
      pending.request_id = request_id;
      pending.trace_id =
          server_->next_trace_id() != tid_before ? tid_before : frame.trace_id;
      pending_.push_back(pending);
      return;
    }
    case ts::JournalEvent::Kind::kRegisterUser:
      admitted = server_->SubmitRegisterUser(event->user, event->policy);
      break;
    case ts::JournalEvent::Kind::kRegisterLbqid:
      admitted = server_->SubmitRegisterLbqid(event->user, *event->lbqid);
      break;
    case ts::JournalEvent::Kind::kSetRules:
      admitted = server_->SubmitSetUserRules(event->user, *event->rules);
      break;
    default:
      break;  // DecodeClientEvent admits only the five client kinds.
  }
  if (!admitted) {
    reply.type = MsgType::kThrottled;
    reply.retry_after_ms = options_.retry_after_ms;
    reply.reason = server_->last_submit_error().ToString();
  }
  QueueReply(session, frame.trace_id, reply);
}

void RpcServer::FlushWindow() {
  // Always drain, even with no pending requests: a client kEndEpoch must
  // journal its epoch marker (wire-vs-in-process parity), and location
  // updates in the window become visible.
  const std::vector<ts::ProcessOutcome> window = server_->DrainWindow();
  windows_.fetch_add(1, std::memory_order_relaxed);
  const size_t base = server_->drained_through() - window.size();
  for (const PendingReply& pending : pending_) {
    Session* session = FindSession(pending.session);
    if (session == nullptr) continue;  // disconnected while queued
    const size_t index = pending.ordinal - base;
    if (index >= window.size()) continue;  // defensive; cannot happen
    QueueReply(*session, pending.trace_id,
               ReplyForOutcome(pending.request_id, window[index],
                               options_.retry_after_ms));
  }
  pending_.clear();
  // Push replies out now; what the sockets refuse waits for POLLOUT.
  to_close_.clear();
  for (auto& [id, session] : sessions_) {
    if (session.out_offset < session.out.size()) to_close_.push_back(id);
  }
  for (const uint64_t id : to_close_) {
    Session* session = FindSession(id);
    if (session != nullptr) TryFlushOut(*session);
  }
}

}  // namespace net
}  // namespace histkanon
