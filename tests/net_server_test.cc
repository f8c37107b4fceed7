// Conformance tests for the RPC serving layer over a real loopback
// socket: ephemeral-port bind, register/update/request round trips,
// batch-window flush by count and by timeout, breaker sheds surfaced as
// Throttled (never silent), hostile bytes answered with a final Error
// frame, client frames refused unless they carry a client event of their
// own frame type, stalled-client disconnect, and the net_* metrics.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/anon/tolerance.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"

namespace histkanon {
namespace net {
namespace {

anon::ServiceProfile TestService() {
  anon::ServiceProfile service;
  service.id = 1;
  service.name = "poi";
  service.tolerance.max_area_width = 4000.0;
  service.tolerance.max_area_height = 4000.0;
  service.tolerance.max_time_window = 3600;
  return service;
}

ts::ConcurrentServerOptions SmallServer() {
  ts::ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 256;
  return options;
}

TEST(NetServer, BindsAnEphemeralPortAndStops) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  // Double start is refused.
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();  // idempotent
}

TEST(NetServer, RegisterUpdateRequestRoundTrip) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1;  // serve immediately
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  auto reg = client.SendRegister(
      5, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  auto ack = client.WaitReply(*reg);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->msg.type, MsgType::kRegisterAck);
  EXPECT_EQ(ack->msg.code, 0u);

  ASSERT_TRUE(client.SendUpdate(5, geo::STPoint{{10, 10}, 30}).ok());
  auto req =
      client.SendRequest(5, geo::STPoint{{12, 12}, 60}, 1, "find poi");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  EXPECT_EQ(reply->msg.request_id, *req);
  EXPECT_EQ(reply->msg.service, 1);
  EXPECT_EQ(reply->msg.data, "find poi");
  EXPECT_FALSE(reply->msg.pseudonym.empty());

  client.Close();
  server.Stop();
  cs.Finish();
  ASSERT_EQ(cs.outcomes().size(), 1u);
  EXPECT_TRUE(cs.outcomes()[0].forwarded);
}

TEST(NetServer, WindowBatchesByCountAcrossConnections) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 4;
  options.window_timeout_ms = 2000;  // count, not timeout, must flush
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<RpcClient>> clients;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<RpcClient>());
    ASSERT_TRUE(clients.back()->Connect(server.port()).ok());
    auto reg = clients.back()->SendRegister(
        i + 1, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(clients.back()->WaitReply(*reg).ok());
  }
  for (int i = 0; i < 4; ++i) {
    auto req = clients[i]->SendRequest(
        i + 1, geo::STPoint{{100.0 * i, 50.0}, 60}, 1, "q");
    ASSERT_TRUE(req.ok());
    ids.push_back(*req);
  }
  for (int i = 0; i < 4; ++i) {
    auto reply = clients[i]->WaitReply(ids[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  }
  EXPECT_GE(server.windows_flushed(), 1u);
  server.Stop();
}

TEST(NetServer, LoneClientIsFlushedByTimeout) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1000;  // never reached
  options.window_timeout_ms = 5;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      9, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());
  auto req = client.SendRequest(9, geo::STPoint{{5, 5}, 30}, 1, "lone");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);  // only the timeout can flush this
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  server.Stop();
}

TEST(NetServer, BreakerShedsBecomeThrottledReplies) {
  // A failing journal trips the front-end breaker; wire submissions are
  // then suppressed fail-closed and MUST come back as Throttled frames.
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  ts::TsJournal journal;
  ts::ConcurrentServerOptions cs_options = SmallServer();
  cs_options.breaker.trip_threshold = 1;
  cs_options.breaker.probe_after = 100000;  // stay degraded for the test
  cs_options.journal = &journal;
  ts::ConcurrentServer cs(cs_options);
  fail::ScopedFailPoint fp(
      fail::kDurJournalAppend,
      fail::ErrorAction(common::StatusCode::kInternal, "disk gone"));
  RpcServerOptions options;
  options.max_window_requests = 1;
  options.retry_after_ms = 123;
  obs::Registry registry;
  options.registry = &registry;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // First registration: journal append fails -> Throttled; afterwards the
  // breaker is open, so every further message is Throttled too.
  for (int i = 0; i < 3; ++i) {
    auto reg = client.SendRegister(
        1, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
    ASSERT_TRUE(reg.ok());
    auto reply = client.WaitReply(*reg);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->msg.type, MsgType::kThrottled);
    EXPECT_EQ(reply->msg.retry_after_ms, 123u);
    EXPECT_FALSE(reply->msg.reason.empty());
  }
  // A shed REQUEST is throttled immediately (no window wait).
  auto req = client.SendRequest(1, geo::STPoint{{0, 0}, 10}, 1, "q");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->msg.type, MsgType::kThrottled);
  // A shed fire-and-forget UPDATE is reported too: never a silent drop.
  auto upd = client.SendUpdate(1, geo::STPoint{{0, 0}, 20});
  ASSERT_TRUE(upd.ok());
  auto shed = client.WaitReply(*upd);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->msg.type, MsgType::kThrottled);

  EXPECT_GE(server.throttled(), 5u);
  EXPECT_EQ(cs.health(), ts::HealthState::kDegraded);
  server.Stop();
}

TEST(NetServer, GarbageBytesGetAFinalErrorFrame) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // Hostile bytes after the magic (Connect already sent it): the frame
  // parser sees a corrupt record, answers one Error frame, and closes.
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(client.fd(), garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  auto reply = client.WaitAnyReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kError);
  EXPECT_FALSE(reply->msg.message.empty());
  // The connection is then closed server-side.
  auto next = client.WaitAnyReply();
  EXPECT_FALSE(next.ok());
  EXPECT_GE(server.protocol_errors(), 1u);
  server.Stop();
}

TEST(NetServer, MalformedBodyGetsErrorAndCloses) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // A well-framed kRequest whose body is one byte of junk.
  std::string wire;
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kRequest), 0, "j");
  ASSERT_EQ(::send(client.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto reply = client.WaitAnyReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->msg.type, MsgType::kError);
  // An unknown frame type is a protocol error too.
  RpcClient client2;
  ASSERT_TRUE(client2.Connect(server.port()).ok());
  std::string wire2;
  AppendFrame(&wire2, 0x7f, 0, "");
  ASSERT_EQ(::send(client2.fd(), wire2.data(), wire2.size(), 0),
            static_cast<ssize_t>(wire2.size()));
  auto reply2 = client2.WaitAnyReply();
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2->msg.type, MsgType::kError);
  server.Stop();
}

// The wire is a trust boundary: DecodeJournalEvent knows every journal
// kind, but a client may send only the five client kinds, each under its
// own frame type.  Each refused frame gets exactly one Error frame, the
// session closes, and nothing reaches the front-end journal.
TEST(NetServer, RefusesServerSideEventsMismatchedKindsAndTrailingBytes) {
  ts::TsJournal journal;
  ts::ConcurrentServerOptions cs_options = SmallServer();
  cs_options.journal = &journal;
  ts::ConcurrentServer cs(cs_options);
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  const tgran::GranularityRegistry granularities =
      tgran::GranularityRegistry::WithDefaults();
  RpcServerOptions options;
  options.granularities = &granularities;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());
  const size_t events_before = journal.event_count();

  auto event_body = [](const ts::JournalEvent& event) {
    return EncodeEvent(EventMsg{7, ts::EncodeJournalEvent(event)});
  };
  ts::JournalEvent service;
  service.kind = ts::JournalEvent::Kind::kRegisterService;
  service.service = TestService();
  ts::JournalEvent epoch_end;
  epoch_end.kind = ts::JournalEvent::Kind::kEpochEnd;
  ts::JournalEvent batch;
  batch.kind = ts::JournalEvent::Kind::kBatch;
  ts::BatchRequest batched;
  batched.user = 3;
  batched.exact = geo::STPoint{{5, 5}, 30};
  batched.service = 1;
  batch.batch = std::make_shared<const std::vector<ts::BatchRequest>>(
      std::vector<ts::BatchRequest>{batched});
  ts::JournalEvent request;
  request.kind = ts::JournalEvent::Kind::kRequest;
  request.user = 3;
  request.point = geo::STPoint{{5, 5}, 30};
  request.service_id = 1;
  request.data = "q";

  struct Hostile {
    MsgType type;
    std::string body;
  };
  std::vector<Hostile> frames;
  // Server-side kinds under every client frame type.
  for (const MsgType type :
       {MsgType::kRegister, MsgType::kUpdate, MsgType::kRequest,
        MsgType::kRegisterLbqid, MsgType::kSetRules}) {
    for (const ts::JournalEvent* event : {&service, &epoch_end, &batch}) {
      frames.push_back({type, event_body(*event)});
    }
  }
  // A client kind under another client kind's frame type.
  frames.push_back({MsgType::kUpdate, event_body(request)});
  frames.push_back({MsgType::kRegister, event_body(request)});
  // A well-formed request body with one trailing byte.
  frames.push_back({MsgType::kRequest, event_body(request) + "Z"});

  for (size_t i = 0; i < frames.size(); ++i) {
    RpcClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    // A receive timeout turns a session left open into a failure below
    // instead of a hang.
    const timeval timeout{2, 0};
    ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    std::string wire;
    AppendFrame(&wire, static_cast<uint8_t>(frames[i].type), 0,
                frames[i].body);
    ASSERT_EQ(::send(client.fd(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    auto reply = client.WaitAnyReply();
    ASSERT_TRUE(reply.ok()) << "frame " << i;
    EXPECT_EQ(reply->msg.type, MsgType::kError) << "frame " << i;
    // Exactly one Error frame, then the server closes the session (a
    // timed-out read leaves the client connected).
    EXPECT_FALSE(client.WaitAnyReply().ok()) << "frame " << i;
    EXPECT_FALSE(client.connected()) << "frame " << i;
    EXPECT_EQ(journal.event_count(), events_before) << "frame " << i;
  }
  EXPECT_EQ(server.protocol_errors(), frames.size());
  server.Stop();
  EXPECT_EQ(journal.event_count(), events_before);
}

TEST(NetServer, MetricsCountTraffic) {
  obs::Registry registry;
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1;
  options.registry = &registry;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());
  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      2, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());
  auto req = client.SendRequest(2, geo::STPoint{{1, 1}, 10}, 1, "m");
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(client.WaitReply(*req).ok());
  EXPECT_EQ(server.accepted(), 1u);
  EXPECT_GE(server.frames_received(), 2u);
  EXPECT_GE(server.replies_sent(), 2u);
  EXPECT_EQ(registry.GetCounter("net_accepted_total")->value(), 1u);
  EXPECT_GE(registry.GetCounter("net_frames_received_total")->value(), 2u);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace histkanon
