// uniform-wire: a uniform population sent over loopback to an RpcServer in
// front of a 2-shard ConcurrentServer with a file journal.  One client
// thread multiplexes at most nproc non-blocking connections (each user's
// traffic always rides the same connection, so per-user order holds);
// with the serving thread and the two shard workers, the process runs no
// more threads than 4.
//
// Each round: set-up (server, connections, registrations, starting
// history), then phase 1 — open loop at a fixed rate, latency timed from
// each request's scheduled send — then phase 2 — closed loop with a fixed
// number of requests outstanding, which gives the rates.  After the
// timed phases every round's replies are checked against a serial
// TrustedServer replaying that round's journal in epoch-normalized order.

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "report.h"
#include "rounds.h"
#include "seams.h"
#include "spans.h"
#include "stats.h"
#include "src/dur/sink.h"
#include "src/net/framing.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/obs/causal_trace.h"
#include "src/obs/metrics.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"

namespace tsbench {
namespace {

namespace dur = histkanon::dur;
namespace net = histkanon::net;
namespace obs = histkanon::obs;
namespace ts = histkanon::ts;

constexpr size_t kShards = 2;
/// Phase 1's fixed rate (requests/s), well below capacity.
constexpr double kOpenLoopRate = 2000.0;
/// Phase 2's requests outstanding: eight 64-request windows, so the
/// client refills while the server serves (fewer left it ping-ponging and
/// its rate bimodal).
constexpr size_t kOutstanding = 512;
/// A send this far behind schedule counts as late.
constexpr int64_t kLateNs = 1000000;

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// What a request id on a connection stands for.
struct Pending {
  enum class Kind : uint8_t { kAck, kRequest };
  Kind kind = Kind::kAck;
  /// kRequest: the event it carried and when it was due.
  const Event* event = nullptr;
  int64_t scheduled_ns = 0;
  bool timed = false;
};

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::string out;
  size_t out_offset = 0;
  uint64_t next_id = 1;
  std::map<uint64_t, Pending> inflight;
  bool dead = false;
};

/// The client side of one round: K connections multiplexed over ppoll.
class Client {
 public:
  Client(SpanRecorder* spans, RunResult* result) : spans_(spans), result_(result) {}
  ~Client() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port, size_t connections) {
    conns_.resize(connections);
    for (Conn& conn : conns_) {
      conn.fd = ConnectLoopback(port);
      if (conn.fd < 0) return false;
      net::AppendWireMagic(&conn.out);
    }
    return true;
  }

  Conn& ConnOf(UserId user) {
    return conns_[static_cast<size_t>(user) % conns_.size()];
  }

  void Queue(Conn& conn, net::MsgType type, const std::string& body) {
    net::AppendFrame(&conn.out, static_cast<uint8_t>(type), 0, body);
    ++frames_sent_;
  }

  void QueueRegister(const UserSpec& user) {
    Conn& conn = ConnOf(user.id);
    net::RegisterMsg msg;
    msg.request_id = conn.next_id++;
    msg.user = user.id;
    msg.policy = user.policy;
    conn.inflight[msg.request_id] = Pending{};
    Queue(conn, net::MsgType::kRegister, net::EncodeRegister(msg));
    ++acks_expected_;
    if (user.lbqid == nullptr) return;
    ts::JournalEvent event;
    event.kind = ts::JournalEvent::Kind::kRegisterLbqid;
    event.user = user.id;
    event.lbqid = user.lbqid;
    net::EventMsg lbqid;
    lbqid.request_id = conn.next_id++;
    lbqid.journal_event = ts::EncodeJournalEvent(event);
    conn.inflight[lbqid.request_id] = Pending{};
    Queue(conn, net::MsgType::kRegisterLbqid, net::EncodeEvent(lbqid));
    ++acks_expected_;
  }

  void QueueUpdate(const Event& event) {
    Conn& conn = ConnOf(event.user);
    net::UpdateMsg msg;
    msg.request_id = conn.next_id++;
    msg.user = event.user;
    msg.sample = event.point;
    // Updates are answered only when shed (a Throttled reply), so they
    // are not tracked as in flight.
    Queue(conn, net::MsgType::kUpdate, net::EncodeUpdate(msg));
  }

  void QueueRequest(const Event& event, int64_t scheduled_ns, bool timed) {
    Conn& conn = ConnOf(event.user);
    net::RequestMsg msg;
    msg.request_id = conn.next_id++;
    msg.user = event.user;
    msg.exact = event.point;
    msg.service = event.service;
    msg.data = "q";
    conn.inflight[msg.request_id] =
        Pending{Pending::Kind::kRequest, &event, scheduled_ns, timed};
    Queue(conn, net::MsgType::kRequest, net::EncodeRequest(msg));
  }

  void QueueEndEpoch() { Queue(conns_[0], net::MsgType::kEndEpoch, ""); }

  /// Sends what each connection has queued, as far as the sockets take.
  void Flush() {
    SpanScope span(spans_, Layer::kNetSend);
    for (Conn& conn : conns_) FlushOut(&conn);
  }

  /// Waits up to `timeout_ns` for replies and handles them.
  void Poll(int64_t timeout_ns) {
    fds_.resize(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds_[i].fd = conns_[i].dead ? -1 : conns_[i].fd;
      fds_[i].events = POLLIN;
      if (conns_[i].out_offset < conns_[i].out.size()) fds_[i].events |= POLLOUT;
      fds_[i].revents = 0;
    }
    timespec wait;
    wait.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
    wait.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
    if (::ppoll(fds_.data(), fds_.size(), &wait, nullptr) <= 0) return;
    SpanScope span(spans_, Layer::kNetRecv);
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].dead) continue;
      if ((fds_[i].revents & POLLOUT) != 0) FlushOut(&conns_[i]);
      if ((fds_[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        DrainIn(&conns_[i]);
      }
    }
  }

  bool AnyDead() const {
    for (const Conn& conn : conns_) {
      if (conn.dead) return true;
    }
    return false;
  }

  uint64_t acks_expected_ = 0;
  uint64_t acks_ = 0;
  uint64_t replies_ = 0;
  uint64_t refused_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  /// Latency of timed (open-loop) requests, from their scheduled send.
  std::vector<double> latencies_us_;
  /// Every request's answer, keyed by (user, instant).
  std::map<std::pair<UserId, Instant>, Answer> answers_;
  int64_t last_reply_ns_ = 0;

 private:
  void FlushOut(Conn* conn) {
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_offset,
                 conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
        bytes_sent_ += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn->dead = true;
      return;
    }
    conn->out.clear();
    conn->out_offset = 0;
  }

  void DrainIn(Conn* conn) {
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        conn->dead = true;
        break;
      }
      bytes_received_ += static_cast<uint64_t>(n);
      conn->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      net::Frame frame;
      for (;;) {
        const net::FrameDecoder::Poll poll = conn->decoder.Next(&frame);
        if (poll == net::FrameDecoder::Poll::kNeedMore) break;
        if (poll == net::FrameDecoder::Poll::kError) {
          result_->Fail("reply stream desynced: " + conn->decoder.error());
          conn->dead = true;
          return;
        }
        ++frames_received_;
        Handle(conn, static_cast<net::MsgType>(frame.type), frame.body);
      }
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
    }
  }

  void Handle(Conn* conn, net::MsgType type, const std::string& body) {
    auto reply = net::DecodeReply(type, body);
    if (!reply.ok()) {
      result_->Fail("undecodable reply: " + reply.status().ToString());
      conn->dead = true;
      return;
    }
    const auto it = conn->inflight.find(reply->request_id);
    if (type == net::MsgType::kThrottled || type == net::MsgType::kError) {
      // A shed update has no in-flight entry; a shed request or
      // registration does.
      if (it != conn->inflight.end()) conn->inflight.erase(it);
      ++refused_;
      return;
    }
    if (it == conn->inflight.end()) {
      result_->Fail("reply for an unknown request id");
      return;
    }
    const Pending pending = it->second;
    conn->inflight.erase(it);
    if (pending.kind == Pending::Kind::kAck) {
      if (type == net::MsgType::kRegisterAck && reply->code == 0) {
        ++acks_;
      } else {
        ++refused_;
      }
      return;
    }
    const int64_t now = NowNs();
    ++replies_;
    last_reply_ns_ = now;
    if (pending.timed) {
      latencies_us_.push_back(static_cast<double>(now - pending.scheduled_ns) *
                              1e-3);
    }
    const Event& event = *pending.event;
    Answer answer;
    answer.user = event.user;
    answer.exact = event.point;
    answer.service = event.service;
    answer.disposition = reply->disposition;
    answer.forwarded = type == net::MsgType::kResponseBox;
    if (type == net::MsgType::kUnlinked) {
      answer.disposition = ts::Disposition::kUnlinked;
    }
    if (answer.forwarded) {
      answer.context = reply->context;
      answer.pseudonym = reply->pseudonym;
      answer.msgid = reply->msgid;
    }
    // The wire carries no HkA flag; the program sets it exactly on the
    // generalized disposition.
    answer.hk_anonymity =
        answer.disposition == ts::Disposition::kForwardedGeneralized;
    answers_[{event.user, event.point.t}] = answer;
  }

  SpanRecorder* const spans_;
  RunResult* const result_;
  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;
};

ts::ConcurrentServerOptions ServerOptions() {
  ts::ConcurrentServerOptions options;
  options.num_shards = kShards;
  options.queue_capacity = 8192;
  return options;
}

/// One round's server side.
struct Live {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::CausalTracer> causal;
  std::unique_ptr<dur::FileSink> file;
  std::unique_ptr<TimingSink> sink;
  ts::TsJournal journal;
  std::unique_ptr<ts::ConcurrentServer> server;
  std::unique_ptr<net::RpcServer> rpc;
};

struct RoundOutput {
  double open_wall_s = 0.0;
  double closed_wall_s = 0.0;
  uint64_t closed_requests = 0;
  uint64_t closed_events = 0;
  uint64_t open_sends = 0;
  uint64_t late_sends = 0;
};

bool WaitFor(Client* client, const std::function<bool()>& done,
             double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (!done()) {
    if (client->AnyDead() || NowSeconds() > deadline) return false;
    client->Poll(2000000);
  }
  return true;
}

/// The serial replay of one round's journal in epoch-normalized order;
/// returns each request's answer keyed by (user, instant), in processing
/// order.
std::vector<std::pair<std::pair<UserId, Instant>, Answer>> SerialReplay(
    const std::string& journal, RunResult* result) {
  std::vector<std::pair<std::pair<UserId, Instant>, Answer>> answers;
  auto events = ts::DecodeAllEvents(journal, Granularities());
  if (!events.ok()) {
    result->Fail("cannot decode the wire journal: " + events.status().ToString());
    return answers;
  }
  ts::TrustedServerOptions options;
  // The sharded server forces per-request randomization on its shards.
  options.per_request_randomization = true;
  ts::TrustedServer serial(options);
  std::vector<const ts::JournalEvent*> epoch;
  const auto close_epoch = [&] {
    for (const ts::JournalEvent* event : epoch) {
      switch (event->kind) {
        case ts::JournalEvent::Kind::kRegisterUser:
          (void)serial.RegisterUser(event->user, event->policy);
          break;
        case ts::JournalEvent::Kind::kRegisterLbqid:
          (void)serial.RegisterLbqid(event->user, *event->lbqid);
          break;
        case ts::JournalEvent::Kind::kUpdate:
        case ts::JournalEvent::Kind::kRequest:
          (void)serial.ApplyLocationUpdate(event->user, event->point);
          break;
        default:
          result->Fail("unexpected journal event kind in the wire journal");
          break;
      }
    }
    for (const ts::JournalEvent* event : epoch) {
      if (event->kind != ts::JournalEvent::Kind::kRequest) continue;
      const ts::ProcessOutcome outcome = serial.ProcessRequest(
          event->user, event->point, event->service_id, event->data);
      answers.emplace_back(std::make_pair(event->user, event->point.t),
                           AnswerOf(event->user, event->service_id, outcome));
    }
    epoch.clear();
  };
  for (const ts::JournalEvent& event : *events) {
    if (event.kind == ts::JournalEvent::Kind::kRegisterService) {
      (void)serial.RegisterService(event.service);
    } else if (event.kind == ts::JournalEvent::Kind::kEpochEnd) {
      close_epoch();
    } else {
      epoch.push_back(&event);
    }
  }
  close_epoch();
  return answers;
}

/// Times rebuilding a round's sharded server from the journal file the
/// round wrote, after its timed phases: RecoverConcurrentServer plus the
/// Checkpoint() that waits for the shards to apply the re-submitted
/// stream.  The live server is stopped and freed first; the rebuilt
/// server's Checkpoint() must equal the live one's.  Returns the seconds
/// the rebuild took, or a negative value.
double RecoverRound(const std::string& journal_path, std::unique_ptr<Live> live,
                    bool traced, LayerReport* layers, RunResult* result) {
  std::string journal_bytes;
  if (!ReadFile(journal_path, &journal_bytes)) {
    result->Fail("cannot read back " + journal_path);
    return -1.0;
  }
  int64_t start = NowNs();
  auto blob = live->server->Checkpoint();
  const int64_t checkpoint_ns = NowNs() - start;
  if (!blob.ok()) {
    result->Fail("live Checkpoint failed: " + blob.status().ToString());
    return -1.0;
  }
  const std::string live_blob = std::move(blob).ValueOrDie();
  live.reset();
  start = NowNs();
  auto recovered = ts::RecoverConcurrentServer(journal_bytes, ServerOptions(),
                                               Granularities());
  if (!recovered.ok()) {
    result->Fail("RecoverConcurrentServer failed: " +
                 recovered.status().ToString());
    return -1.0;
  }
  auto rebuilt_blob = recovered->server->Checkpoint();
  const int64_t took = NowNs() - start;
  if (!rebuilt_blob.ok() || *rebuilt_blob != live_blob) {
    result->Fail("recovered sharded server's Checkpoint() differs from the "
                 "live server's");
  }
  if (traced) {
    uint64_t replayed = 0;
    auto events = ts::DecodeAllEvents(journal_bytes, Granularities());
    if (events.ok()) replayed = events->size();
    layers->AddCheckpoint(checkpoint_ns, live_blob.size());
    layers->AddRecovery(took, journal_bytes.size(), replayed);
  }
  return static_cast<double>(took) * 1e-9;
}

}  // namespace

RunResult RunUniformWire(const RunConfig& config) {
  RunResult result;
  const Workload workload = MakeUniformWorkload(config.seed);
  const double inputs_s = NowSeconds() - config.process_start;
  std::fprintf(stderr, "tsbench: inputs: %s\n", workload.Describe().c_str());
  const size_t connections = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const std::string journal_path = config.out_dir + "/uniform-wire.journal";
  std::unique_ptr<SpanRecorder> recorder;
  if (config.trace) recorder = std::make_unique<SpanRecorder>(kKeptSpans);

  EndToEnd e2e;
  LayerReport layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool rounds_done = false;
  // Each round's journal and replies, checked after the timed phase.
  struct RoundRecord {
    std::string journal;
    std::map<std::pair<UserId, Instant>, Answer> answers;
  };
  std::vector<RoundRecord> records;
  bool kept_trace = false;

  RunRounds(config, [&](const RoundPlan& plan) {
    SpanRecorder* spans = plan.traced ? recorder.get() : nullptr;
    if (spans != nullptr && !kept_trace) spans->SetKeeping(true);
    // The first server's resident memory is its own: what the input
    // generator freed goes back to the system before the baseline.
    if (plan.warmup) malloc_trim(0);
    const double rss_before = ResidentMb();
    auto live = std::make_unique<Live>();
    ts::ConcurrentServerOptions options = ServerOptions();
    net::RpcServerOptions rpc_options;
    rpc_options.granularities = &Granularities();
    if (spans != nullptr) {
      live->registry = std::make_unique<obs::Registry>();
      live->causal = std::make_unique<obs::CausalTracer>();
      options.server.registry = live->registry.get();
      options.server.causal = live->causal.get();
      rpc_options.registry = live->registry.get();
    }
    auto file = dur::FileSink::Open(journal_path);
    if (!file.ok()) {
      result.Fail("cannot open " + journal_path);
      return;
    }
    live->file = std::move(file).ValueOrDie();
    dur::JournalSink* sink = live->file.get();
    if (spans != nullptr) {
      live->sink = std::make_unique<TimingSink>(spans, live->file.get());
      sink = live->sink.get();
    }
    if (!live->journal.AttachSink(sink).ok()) {
      result.Fail("AttachSink failed");
      return;
    }
    options.journal = &live->journal;
    live->server = std::make_unique<ts::ConcurrentServer>(options);
    for (const auto& service : workload.services) {
      if (!live->server->RegisterService(service).ok()) {
        result.Fail("RegisterService failed");
      }
    }
    live->rpc = std::make_unique<net::RpcServer>(live->server.get(), rpc_options);
    if (!live->rpc->Start().ok()) {
      result.Fail("RpcServer::Start failed");
      return;
    }

    // -- Set-up traffic: registrations, LBQIDs, starting history.
    Client client(spans, &result);
    if (!client.Connect(live->rpc->port(), connections)) {
      result.Fail("connect failed");
      return;
    }
    for (const UserSpec& user : workload.users) client.QueueRegister(user);
    for (const Event& event : workload.history) client.QueueUpdate(event);
    client.QueueEndEpoch();
    client.Flush();
    if (!WaitFor(&client, [&] { return client.acks_ + client.refused_ >=
                                       client.acks_expected_; }, 60.0)) {
      result.Fail("set-up stalled");
      return;
    }
    attempted += client.acks_expected_ + workload.history.size();

    // -- Phase 1: open loop at a fixed rate.
    RoundOutput out;
    const int64_t interval_ns = static_cast<int64_t>(1e9 / kOpenLoopRate);
    const int64_t open_start = NowNs();
    if (plan.warmup) {
      e2e.setup_s = NowSeconds() - config.process_start;
      std::fprintf(stderr, "tsbench: set-up %.3f s, of which inputs %.3f s\n",
                   e2e.setup_s, inputs_s);
    }
    const std::vector<Event>& open = workload.open_loop;
    size_t next = 0;
    while (next < open.size()) {
      const int64_t now = NowNs();
      while (next < open.size() &&
             open_start + static_cast<int64_t>(next / 2) * interval_ns <= now) {
        const int64_t due = open_start + static_cast<int64_t>(next / 2) * interval_ns;
        if (now - due > kLateNs) ++out.late_sends;
        ++out.open_sends;
        client.QueueUpdate(open[next]);
        client.QueueRequest(open[next + 1], due, /*timed=*/true);
        next += 2;
      }
      client.Flush();
      const int64_t due = open_start + static_cast<int64_t>(next / 2) * interval_ns;
      client.Poll(std::max<int64_t>(0, due - NowNs()));
      if (client.AnyDead()) break;
    }
    const uint64_t open_requests = open.size() / 2;
    WaitFor(&client, [&] { return client.replies_ + client.refused_ >= open_requests; },
            60.0);
    out.open_wall_s = static_cast<double>(client.last_reply_ns_ - open_start) * 1e-9;

    // -- Phase 2: closed loop, kOutstanding requests in flight.
    const std::vector<Event>& closed = workload.closed_loop;
    const uint64_t base_replies = client.replies_ + client.refused_;
    const int64_t closed_start = NowNs();
    next = 0;
    const auto send_pair = [&] {
      client.QueueUpdate(closed[next]);
      client.QueueRequest(closed[next + 1], NowNs(), /*timed=*/false);
      next += 2;
    };
    while (next < closed.size() && next / 2 < kOutstanding) send_pair();
    client.Flush();
    const uint64_t closed_requests = closed.size() / 2;
    const double deadline = NowSeconds() + 120.0;
    while (client.replies_ + client.refused_ - base_replies < closed_requests) {
      if (client.AnyDead() || NowSeconds() > deadline) break;
      client.Poll(2000000);
      const uint64_t done = client.replies_ + client.refused_ - base_replies;
      while (next < closed.size() && next / 2 < done + kOutstanding) send_pair();
      client.Flush();
    }
    out.closed_wall_s =
        static_cast<double>(client.last_reply_ns_ - closed_start) * 1e-9;
    out.closed_requests = closed_requests;
    out.closed_events = closed.size();
    if (plan.warmup) e2e.server_rss_mb = ResidentMb() - rss_before;

    live->rpc->Stop();
    if (!live->journal.Sync().ok()) result.Fail("journal sync failed");
    if (client.AnyDead()) result.Fail("a connection died");
    attempted += open.size() + closed.size();
    const uint64_t expected = open_requests + closed_requests;
    failed += client.refused_;
    if (client.replies_ + client.refused_ < expected) {
      failed += expected - client.replies_ - client.refused_;
    }
    records.push_back(RoundRecord{live->journal.bytes(), std::move(client.answers_)});

    TracedRound traced;
    if (plan.traced) {
      spans->SetKeeping(false);
      if (!kept_trace) {
        kept_trace = true;
        std::ofstream(config.out_dir + "/uniform-wire.causal.json")
            << live->causal->ToChromeTraceJson();
      }
      traced.wall_s = out.open_wall_s + out.closed_wall_s;
      traced.spans = spans->TakeTotals();
      traced.ReadRegistry(*live->registry);
      traced.frames_sent = client.frames_sent_;
      traced.frames_received = client.frames_received_;
      traced.bytes_sent = client.bytes_sent_;
      traced.bytes_received = client.bytes_received_;
      traced.windows = live->rpc->windows_flushed();
      traced.window_requests = expected;
      traced.open_loop_sends = out.open_sends;
      traced.open_loop_late_sends = out.late_sends;
      const std::vector<obs::CausalSpanRecord> causal = live->causal->Records();
      std::vector<ForeignSpan> foreign;
      foreign.reserve(causal.size());
      for (const obs::CausalSpanRecord& r : causal) {
        foreign.push_back(ForeignSpan{r.span_id, r.parent_span, r.start_ns,
                                      r.duration_ns});
      }
      const std::vector<int64_t> self = SelfTimes(foreign);
      for (size_t i = 0; i < causal.size(); ++i) {
        traced.causal_self_ns[causal[i].name] += self[i];
        ++traced.causal_calls[causal[i].name];
      }
    }
    // Each round's rebuild is one recover_s sample, so the samples spread
    // over the run like the rounds do.
    const double recover_s =
        RecoverRound(journal_path, std::move(live), plan.traced, &layers, &result);
    rounds_done = true;
    if (plan.warmup) return;
    const double events_per_s =
        static_cast<double>(out.closed_events) / out.closed_wall_s;
    if (plan.traced) {
      layers.AddRound(traced);
      e2e.traced_events_per_s.push_back(events_per_s);
      return;
    }
    if (recover_s >= 0) e2e.recover_s.push_back(recover_s);
    e2e.events_per_s.push_back(events_per_s);
    e2e.requests_per_s.push_back(static_cast<double>(out.closed_requests) /
                                 out.closed_wall_s);
    AddLatencies(std::move(client.latencies_us_), &e2e);
  });
  if (!rounds_done) {
    result.Fail("no round completed");
    return result;
  }

  // -- Output checks: every round's replies against a serial replay of
  // that round's journal, plus the properties.
  {
    SampleSet samples;
    AddWorkloadSamples(workload, &samples);
    std::vector<std::string> errors;
    size_t overshoots = 0;
    for (size_t r = 0; r < records.size(); ++r) {
      const auto serial = SerialReplay(records[r].journal, &result);
      std::vector<Answer> got;
      std::vector<Answer> want;
      for (const auto& [key, answer] : serial) {
        const auto it = records[r].answers.find(key);
        if (it == records[r].answers.end()) continue;  // counted as failed
        got.push_back(it->second);
        want.push_back(answer);
      }
      if (got.size() != records[r].answers.size()) {
        errors.push_back("round " + std::to_string(r) + ": " +
                         std::to_string(records[r].answers.size() - got.size()) +
                         " replies have no journaled request");
      }
      CompareAnswers(got, want, /*exact_identity=*/false,
                     "round " + std::to_string(r) + " wire vs serial replay",
                     &errors);
      CheckProperties(got, workload, samples, &errors, &overshoots);
      if (r + 1 == records.size()) {
        std::fprintf(stderr, "tsbench: dispositions in the last round: %s\n",
                     DispositionSummary(got).c_str());
      }
    }
    for (std::string& error : errors) result.Fail(std::move(error));
    if (overshoots > 0) {
      std::fprintf(stderr,
                   "tsbench: note: %zu generalized contexts exceed their "
                   "tolerance by a rounding error (<= 1e-6 m)\n",
                   overshoots);
    }
  }

  std::fprintf(stderr, "tsbench: inputs digest %016llx\n",
               static_cast<unsigned long long>(workload.Digest()));
  std::remove(journal_path.c_str());
  result.attempted = attempted;
  result.failed = failed;
  if (config.trace) {
    layers.SetTraceOverhead(TraceOverhead(e2e));
    layers.Emit(&result);
    const std::string path = config.out_dir + "/uniform-wire.trace.json";
    if (!WriteChromeTrace(path, recorder->KeptSpans())) {
      result.Fail("cannot write " + path);
    }
  } else {
    EmitEndToEnd(e2e, &result);
  }
  return result;
}

}  // namespace tsbench
