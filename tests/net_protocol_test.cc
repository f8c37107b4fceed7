// Unit coverage for the HKNETRP2 wire layer: frame append/decode round
// trips under arbitrary chunking, sticky desync on corruption, client
// bodies that carry exactly the journal record Submit* writes, reply
// codec round trips for every type, and the outcome->reply mapping.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dur/framing.h"
#include "src/net/framing.h"
#include "src/net/protocol.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"

namespace histkanon {
namespace net {
namespace {

std::string OneFrame(uint8_t type, uint64_t trace_id, std::string_view body,
                     bool with_magic = true) {
  std::string out;
  if (with_magic) AppendWireMagic(&out);
  AppendFrame(&out, type, trace_id, body);
  return out;
}

TEST(NetFraming, RoundTripsOneFrame) {
  const std::string wire =
      OneFrame(static_cast<uint8_t>(MsgType::kRequest), 42, "hello");
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MsgType::kRequest));
  EXPECT_EQ(frame.version, kProtocolVersion);
  EXPECT_EQ(frame.trace_id, 42u);
  EXPECT_EQ(frame.body, "hello");
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kNeedMore);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(NetFraming, DecodesByteAtATime) {
  std::string wire;
  AppendWireMagic(&wire);
  for (int i = 0; i < 5; ++i) {
    AppendFrame(&wire, static_cast<uint8_t>(MsgType::kUpdate),
                static_cast<uint64_t>(i), std::string(i * 7, 'x'));
  }
  FrameDecoder decoder;
  size_t decoded = 0;
  Frame frame;
  for (const char byte : wire) {
    decoder.Feed(std::string_view(&byte, 1));
    while (decoder.Next(&frame) == FrameDecoder::Poll::kFrame) {
      EXPECT_EQ(frame.trace_id, decoded);
      EXPECT_EQ(frame.body.size(), decoded * 7);
      ++decoded;
    }
    ASSERT_FALSE(decoder.failed());
  }
  EXPECT_EQ(decoded, 5u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetFraming, BadMagicIsStickyError) {
  FrameDecoder decoder;
  decoder.Feed("HKDURJL1");  // a journal is NOT a connection
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.error().empty());
  // Sticky: feeding valid bytes afterwards changes nothing.
  decoder.Feed(OneFrame(1, 0, "x"));
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
  decoder.Reset();
  decoder.Feed(OneFrame(1, 0, "x"));
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kFrame);
  // An HKNETRP1 stream (the previous revision, whose client bodies have
  // other layouts) is refused at the magic, before any frame.
  std::string old_stream = "HKNETRP1";
  AppendFrame(&old_stream, 1, 0, "x");
  decoder.Reset();
  decoder.Feed(old_stream);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
  EXPECT_EQ(decoder.frames_decoded(), 0u);
}

TEST(NetFraming, BitRotFailsTheCrc) {
  std::string wire = OneFrame(3, 9, "payload-bytes");
  wire[wire.size() - 4] ^= 0x20;  // flip one payload bit
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
  EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
}

TEST(NetFraming, OversizedLengthIsCorruption) {
  std::string wire;
  AppendWireMagic(&wire);
  // Hand-build a header claiming a > kMaxFramePayload body.
  const uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  wire.append(4, '\0');  // crc (never reached)
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
  EXPECT_NE(decoder.error().find("cap"), std::string::npos);
}

TEST(NetFraming, WrongVersionRejected) {
  // A frame whose payload header carries version 2.
  std::string body;
  std::string out;
  AppendWireMagic(&out);
  AppendFrame(&out, 1, 0, "");
  // The version byte is the second payload byte: magic(8) + len(4) +
  // crc(4) + type(1) -> offset 17.  Rewriting it breaks the CRC, so
  // corrupt-version and corrupt-byte both must land on kError.
  out[17] = 2;
  FrameDecoder decoder;
  decoder.Feed(out);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
}

TEST(NetFraming, TruncatedFrameNeedsMore) {
  const std::string wire = OneFrame(2, 7, "truncate-me");
  for (size_t cut = 0; cut + 1 < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(wire).substr(0, cut));
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kNeedMore)
        << "cut at " << cut;
    ASSERT_FALSE(decoder.failed()) << "cut at " << cut;
  }
}

// The body after its u64 request_id: the journal event record.
std::string_view EventRecord(std::string_view body) {
  return body.substr(sizeof(uint64_t));
}

// True when the journal's last framed record is exactly `record`: the
// wire body carries the bytes Submit* journaled, not a re-encoding.
bool JournalEndsWith(const ts::TsJournal& journal, std::string_view record) {
  std::string framed;
  dur::AppendRecord(&framed, record);
  return journal.bytes().size() >= framed.size() &&
         journal.bytes().compare(journal.bytes().size() - framed.size(),
                                 framed.size(), framed) == 0;
}

ts::ConcurrentServerOptions JournaledServer(ts::TsJournal* journal) {
  ts::ConcurrentServerOptions options;
  options.num_shards = 1;
  options.journal = journal;
  return options;
}

TEST(NetProtocol, RegisterRoundTrip) {
  RegisterMsg msg;
  msg.request_id = 77;
  msg.user = 123456789;
  msg.policy = ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kHigh);
  const std::string body = EncodeRegister(msg);

  ts::TsJournal journal;
  ts::ConcurrentServer server(JournaledServer(&journal));
  ASSERT_TRUE(server.SubmitRegisterUser(msg.user, msg.policy));
  EXPECT_TRUE(JournalEndsWith(journal, EventRecord(body)));

  uint64_t request_id = 0;
  common::Result<ts::JournalEvent> back =
      DecodeClientEvent(MsgType::kRegister, body, nullptr, &request_id);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(request_id, msg.request_id);
  EXPECT_EQ(back->kind, ts::JournalEvent::Kind::kRegisterUser);
  EXPECT_EQ(back->user, msg.user);
  EXPECT_EQ(back->policy.concern, msg.policy.concern);
  EXPECT_EQ(back->policy.k, msg.policy.k);
  EXPECT_EQ(back->policy.theta, msg.policy.theta);
  EXPECT_EQ(back->policy.k_schedule.initial_factor,
            msg.policy.k_schedule.initial_factor);
  EXPECT_EQ(back->policy.k_schedule.decrement_per_step,
            msg.policy.k_schedule.decrement_per_step);
  EXPECT_EQ(back->policy.default_context_scale,
            msg.policy.default_context_scale);
}

TEST(NetProtocol, UpdateAndRequestRoundTrip) {
  ts::TsJournal journal;
  ts::ConcurrentServer server(JournaledServer(&journal));

  UpdateMsg update;
  update.request_id = 5;
  update.user = 9;
  update.sample = geo::STPoint{{12.5, -3.25}, 3600};
  const std::string update_body = EncodeUpdate(update);
  ASSERT_TRUE(server.SubmitLocationUpdate(update.user, update.sample));
  EXPECT_TRUE(JournalEndsWith(journal, EventRecord(update_body)));
  uint64_t request_id = 0;
  common::Result<ts::JournalEvent> u =
      DecodeClientEvent(MsgType::kUpdate, update_body, nullptr, &request_id);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(request_id, 5u);
  EXPECT_EQ(u->kind, ts::JournalEvent::Kind::kUpdate);
  EXPECT_EQ(u->user, 9);
  EXPECT_EQ(u->point, update.sample);

  RequestMsg request;
  request.request_id = 6;
  request.user = 10;
  request.exact = geo::STPoint{{1.0, 2.0}, 30};
  request.service = 3;
  request.data = "nearest hospital";
  const std::string request_body = EncodeRequest(request);
  ASSERT_NE(server.SubmitRequest(request.user, request.exact,
                                 request.service, request.data),
            ts::ConcurrentServer::kShedSubmission);
  EXPECT_TRUE(JournalEndsWith(journal, EventRecord(request_body)));
  common::Result<ts::JournalEvent> r = DecodeClientEvent(
      MsgType::kRequest, request_body, nullptr, &request_id);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(request_id, 6u);
  EXPECT_EQ(r->kind, ts::JournalEvent::Kind::kRequest);
  EXPECT_EQ(r->user, 10);
  EXPECT_EQ(r->point, request.exact);
  EXPECT_EQ(r->service_id, 3);
  EXPECT_EQ(r->data, "nearest hospital");

  // A body is accepted only under the frame type of its event kind.
  EXPECT_FALSE(
      DecodeClientEvent(MsgType::kUpdate, request_body, nullptr, &request_id)
          .ok());
  EXPECT_FALSE(DecodeClientEvent(MsgType::kEndEpoch, request_body, nullptr,
                                 &request_id)
                   .ok());
}

TEST(NetProtocol, TruncatedBodiesFailTyped) {
  RequestMsg request;
  request.request_id = 1;
  request.user = 2;
  request.data = "abc";
  const std::string body = EncodeRequest(request);
  uint64_t request_id = 0;
  for (size_t cut = 0; cut < body.size(); ++cut) {
    common::Result<ts::JournalEvent> r = DecodeClientEvent(
        MsgType::kRequest, std::string_view(body).substr(0, cut), nullptr,
        &request_id);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Trailing garbage is rejected too (no silent over-read).
  common::Result<ts::JournalEvent> r = DecodeClientEvent(
      MsgType::kRequest, body + "Z", nullptr, &request_id);
  EXPECT_FALSE(r.ok());
}

TEST(NetProtocol, ReplyRoundTripsEveryType) {
  ReplyMsg box;
  box.type = MsgType::kResponseBox;
  box.request_id = 11;
  box.disposition = ts::Disposition::kForwardedGeneralized;
  box.msgid = 99;
  box.pseudonym = "p-42";
  box.context = geo::STBox{geo::Rect{0, 0, 100, 200}, geo::TimeInterval{5, 9}};
  box.service = 2;
  box.data = "payload";
  common::Result<ReplyMsg> b =
      DecodeReply(MsgType::kResponseBox, EncodeReply(box));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->disposition, box.disposition);
  EXPECT_EQ(b->msgid, box.msgid);
  EXPECT_EQ(b->pseudonym, box.pseudonym);
  EXPECT_EQ(b->context, box.context);
  EXPECT_EQ(b->service, box.service);
  EXPECT_EQ(b->data, box.data);

  ReplyMsg throttled;
  throttled.type = MsgType::kThrottled;
  throttled.request_id = 12;
  throttled.retry_after_ms = 250;
  throttled.reason = "queue_full";
  common::Result<ReplyMsg> t =
      DecodeReply(MsgType::kThrottled, EncodeReply(throttled));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->retry_after_ms, 250u);
  EXPECT_EQ(t->reason, "queue_full");

  ReplyMsg error;
  error.type = MsgType::kError;
  error.request_id = 13;
  error.code = 7;
  error.message = "bad frame";
  common::Result<ReplyMsg> e = DecodeReply(MsgType::kError, EncodeReply(error));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->code, 7u);
  EXPECT_EQ(e->message, "bad frame");

  ReplyMsg suppressed;
  suppressed.type = MsgType::kSuppressed;
  suppressed.request_id = 14;
  suppressed.disposition = ts::Disposition::kSuppressedMixZone;
  common::Result<ReplyMsg> s =
      DecodeReply(MsgType::kSuppressed, EncodeReply(suppressed));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->disposition, ts::Disposition::kSuppressedMixZone);

  ReplyMsg unlinked;
  unlinked.type = MsgType::kUnlinked;
  unlinked.request_id = 15;
  common::Result<ReplyMsg> ul =
      DecodeReply(MsgType::kUnlinked, EncodeReply(unlinked));
  ASSERT_TRUE(ul.ok());
  EXPECT_EQ(ul->request_id, 15u);

  // A request frame type is not a reply.
  EXPECT_FALSE(DecodeReply(MsgType::kRequest, EncodeReply(error)).ok());
}

TEST(NetProtocol, ReplyForOutcomeMapsDispositions) {
  ts::ProcessOutcome forwarded;
  forwarded.disposition = ts::Disposition::kForwardedGeneralized;
  forwarded.forwarded = true;
  forwarded.forwarded_request.msgid = 4;
  forwarded.forwarded_request.pseudonym = "p";
  forwarded.forwarded_request.service = 1;
  forwarded.forwarded_request.data = "d";
  EXPECT_EQ(ReplyForOutcome(1, forwarded, 50).type, MsgType::kResponseBox);

  ts::ProcessOutcome unlinked;
  unlinked.disposition = ts::Disposition::kUnlinked;
  EXPECT_EQ(ReplyForOutcome(2, unlinked, 50).type, MsgType::kUnlinked);

  ts::ProcessOutcome rejected;
  rejected.disposition = ts::Disposition::kRejected;
  const ReplyMsg shed = ReplyForOutcome(3, rejected, 75);
  EXPECT_EQ(shed.type, MsgType::kThrottled);
  EXPECT_EQ(shed.retry_after_ms, 75u);

  ts::ProcessOutcome quiet;
  quiet.disposition = ts::Disposition::kSuppressedMixZone;
  EXPECT_EQ(ReplyForOutcome(4, quiet, 50).type, MsgType::kSuppressed);

  ts::ProcessOutcome at_risk;
  at_risk.disposition = ts::Disposition::kAtRisk;
  EXPECT_EQ(ReplyForOutcome(5, at_risk, 50).type, MsgType::kSuppressed);
}

TEST(NetProtocol, MsgTypeNames) {
  EXPECT_EQ(MsgTypeToString(MsgType::kRegister), "register");
  EXPECT_EQ(MsgTypeToString(MsgType::kThrottled), "throttled");
  EXPECT_EQ(MsgTypeToString(static_cast<MsgType>(0xee)), "unknown");
}

}  // namespace
}  // namespace net
}  // namespace histkanon
