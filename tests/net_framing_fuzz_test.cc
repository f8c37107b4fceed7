// Seed-corpus fuzz test for the wire frame decoder (satellite of the
// RPC serving layer): truncated frames, oversized length prefixes,
// bit-rotted payloads, magic mismatches, and interleaved partial frames
// must never crash, hang, leak, or silently desync — the decoder either
// yields frames whose bytes round-trip, reports kNeedMore, or latches a
// sticky kError.  The body codecs get the same treatment: mutated bodies
// decode to a value or a typed error, never UB.  The CI sanitizer jobs
// run this with HISTKANON_FUZZ_ITERATIONS=2000.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/net/framing.h"
#include "src/net/protocol.h"

namespace histkanon {
namespace net {
namespace {

size_t Iterations() {
  const char* env = std::getenv("HISTKANON_FUZZ_ITERATIONS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 300;
}

// A valid multi-frame stream covering every message type.
std::string SeedStream() {
  std::string wire;
  AppendWireMagic(&wire);

  RegisterMsg reg;
  reg.request_id = 1;
  reg.user = 7;
  reg.policy = ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium);
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kRegister), 0,
              EncodeRegister(reg));

  UpdateMsg update;
  update.request_id = 2;
  update.user = 7;
  update.sample = geo::STPoint{{100.0, 200.0}, 60};
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kUpdate), 0,
              EncodeUpdate(update));

  RequestMsg request;
  request.request_id = 3;
  request.user = 7;
  request.exact = geo::STPoint{{110.0, 190.0}, 120};
  request.service = 1;
  request.data = "poi query";
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kRequest), 9,
              EncodeRequest(request));

  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kEndEpoch), 0, "");

  ReplyMsg box;
  box.type = MsgType::kResponseBox;
  box.request_id = 3;
  box.msgid = 12;
  box.pseudonym = "p-1";
  box.context =
      geo::STBox{geo::Rect{0, 0, 500, 500}, geo::TimeInterval{0, 300}};
  box.service = 1;
  box.data = "poi query";
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kResponseBox), 9,
              EncodeReply(box));

  ReplyMsg throttled;
  throttled.type = MsgType::kThrottled;
  throttled.request_id = 4;
  throttled.retry_after_ms = 50;
  throttled.reason = "queue_full";
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kThrottled), 0,
              EncodeReply(throttled));
  return wire;
}

// Feeds `bytes` in randomly sized chunks and drains the decoder; the
// invariant is termination with sane state, whatever the bytes were.
void DriveDecoder(const std::string& bytes, common::Rng* rng) {
  FrameDecoder decoder;
  size_t fed = 0;
  size_t frames = 0;
  while (fed < bytes.size()) {
    const size_t chunk = static_cast<size_t>(
        rng->UniformInt(1, 97));
    const size_t take = std::min(chunk, bytes.size() - fed);
    decoder.Feed(std::string_view(bytes).substr(fed, take));
    fed += take;
    Frame frame;
    for (;;) {
      const FrameDecoder::Poll poll = decoder.Next(&frame);
      if (poll == FrameDecoder::Poll::kFrame) {
        ++frames;
        ASSERT_LE(frame.body.size(), kMaxFramePayload);
        // A decoded frame's bytes must re-encode to a decodable frame.
        EXPECT_EQ(frame.version, kProtocolVersion);
        continue;
      }
      if (poll == FrameDecoder::Poll::kError) {
        ASSERT_TRUE(decoder.failed());
        ASSERT_FALSE(decoder.error().empty());
        // Sticky: once desynced, further bytes never resurrect it.
        decoder.Feed(bytes);
        ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Poll::kError);
        return;
      }
      break;  // kNeedMore
    }
    ASSERT_LT(frames, 10000u) << "decoder runaway";
  }
}

TEST(NetFramingFuzz, MutatedStreamsNeverCrashOrDesyncSilently) {
  const std::string seed = SeedStream();
  common::Rng rng(20260808);
  for (size_t iter = 0; iter < Iterations(); ++iter) {
    std::string bytes = seed;
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // truncation
        bytes.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
        break;
      }
      case 1: {  // bit rot
        const int flips = static_cast<int>(rng.UniformInt(1, 8));
        for (int i = 0; i < flips; ++i) {
          const size_t at = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[at] = static_cast<char>(
              bytes[at] ^ static_cast<char>(1 << rng.UniformInt(0, 7)));
        }
        break;
      }
      case 2: {  // magic mismatch / prefix garbage
        const size_t n = static_cast<size_t>(rng.UniformInt(1, 16));
        std::string prefix;
        for (size_t i = 0; i < n; ++i) {
          prefix.push_back(static_cast<char>(rng.UniformInt(0, 255)));
        }
        bytes = prefix + bytes;
        break;
      }
      case 3: {  // interleaved partial frames: splice a torn copy inside
        const size_t cut = static_cast<size_t>(
            rng.UniformInt(8, static_cast<int64_t>(bytes.size()) - 1));
        bytes = bytes.substr(0, cut) + seed.substr(8, cut) + bytes.substr(cut);
        break;
      }
      default: {  // pure garbage
        const size_t n = static_cast<size_t>(rng.UniformInt(0, 512));
        bytes.clear();
        for (size_t i = 0; i < n; ++i) {
          bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
        }
        break;
      }
    }
    DriveDecoder(bytes, &rng);
  }
}

TEST(NetFramingFuzz, IntactStreamSurvivesAnyChunking) {
  const std::string seed = SeedStream();
  common::Rng rng(99);
  for (size_t iter = 0; iter < Iterations() / 10 + 5; ++iter) {
    FrameDecoder decoder;
    size_t fed = 0;
    size_t frames = 0;
    Frame frame;
    while (fed < seed.size()) {
      const size_t take = std::min(
          static_cast<size_t>(rng.UniformInt(1, 31)), seed.size() - fed);
      decoder.Feed(std::string_view(seed).substr(fed, take));
      fed += take;
      while (decoder.Next(&frame) == FrameDecoder::Poll::kFrame) ++frames;
      ASSERT_FALSE(decoder.failed()) << decoder.error();
    }
    EXPECT_EQ(frames, 6u);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(NetFramingFuzz, MutatedBodiesDecodeToValueOrTypedError) {
  RequestMsg request;
  request.request_id = 3;
  request.user = 7;
  request.exact = geo::STPoint{{110.0, 190.0}, 120};
  request.service = 1;
  request.data = "poi query";
  const std::string seed = EncodeRequest(request);
  const tgran::GranularityRegistry granularities =
      tgran::GranularityRegistry::WithDefaults();
  common::Rng rng(4242);
  for (size_t iter = 0; iter < Iterations(); ++iter) {
    std::string body = seed;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(body.size()) - 1));
    body[at] = static_cast<char>(rng.UniformInt(0, 255));
    if (rng.Bernoulli(0.3)) {
      body.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(body.size()))));
    }
    // Either outcome is fine; crashing or over-reading is not.  Every
    // client frame type goes through the server's one decode entry.
    for (const MsgType type :
         {MsgType::kRegister, MsgType::kUpdate, MsgType::kRequest,
          MsgType::kRegisterLbqid, MsgType::kSetRules}) {
      uint64_t request_id = 0;
      (void)DecodeClientEvent(type, body, &granularities, &request_id).ok();
      (void)DecodeClientEvent(type, body, nullptr, &request_id).ok();
    }
    (void)DecodeReply(MsgType::kResponseBox, body).ok();
    (void)DecodeReply(MsgType::kThrottled, body).ok();
  }
}

}  // namespace
}  // namespace net
}  // namespace histkanon
