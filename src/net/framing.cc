#include "src/net/framing.h"

#include <utility>

#include "src/dur/encode.h"
#include "src/dur/framing.h"

namespace histkanon {
namespace net {

namespace {
constexpr std::string_view kMagic = "HKNETRP2";
}  // namespace

std::string_view WireMagic() { return kMagic; }

void AppendWireMagic(std::string* out) { out->append(kMagic); }

void AppendFrame(std::string* out, uint8_t type, uint64_t trace_id,
                 std::string_view body) {
  dur::ByteWriter payload;
  payload.PutU8(type);
  payload.PutU8(kProtocolVersion);
  payload.PutU64(trace_id);
  std::string bytes = payload.TakeBytes();
  bytes.append(body.data(), body.size());
  dur::AppendRecord(out, bytes);
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (failed_) return;
  // Compact the consumed prefix before growing the buffer, so a
  // long-lived session's memory stays bounded by one partial frame.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > kMaxFramePayload) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Poll FrameDecoder::Fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
  return Poll::kError;
}

FrameDecoder::Poll FrameDecoder::Next(Frame* out) {
  if (failed_) return Poll::kError;
  if (!saw_magic_) {
    const size_t have = buffer_.size() - consumed_;
    const size_t want = kMagic.size();
    const std::string_view head(buffer_.data() + consumed_,
                                have < want ? have : want);
    if (head != kMagic.substr(0, head.size())) {
      return Fail("bad wire magic (not an HKNETRP2 stream)");
    }
    if (have < want) return Poll::kNeedMore;
    consumed_ += want;
    saw_magic_ = true;
  }
  std::string_view payload;
  size_t record_bytes = 0;
  std::string error;
  switch (dur::ParseRecordAt(buffer_, consumed_, kMaxFramePayload, &payload,
                             &record_bytes, &error)) {
    case dur::RecordParse::kNeedMore:
      return Poll::kNeedMore;
    case dur::RecordParse::kBad:
      return Fail(std::move(error));
    case dur::RecordParse::kRecord:
      break;
  }
  if (payload.size() < kFrameHeaderBytes) {
    return Fail("frame payload shorter than its typed header");
  }
  dur::ByteReader reader(payload);
  uint8_t type = 0;
  uint8_t version = 0;
  uint64_t trace_id = 0;
  if (!reader.ReadU8(&type).ok() || !reader.ReadU8(&version).ok() ||
      !reader.ReadU64(&trace_id).ok()) {
    return Fail("frame header decode failed");
  }
  if (version != kProtocolVersion) {
    return Fail("unsupported protocol version");
  }
  out->type = type;
  out->version = version;
  out->trace_id = trace_id;
  out->body.assign(payload.data() + kFrameHeaderBytes,
                   payload.size() - kFrameHeaderBytes);
  consumed_ += record_bytes;
  ++frames_decoded_;
  return Poll::kFrame;
}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  saw_magic_ = false;
  failed_ = false;
  error_.clear();
  frames_decoded_ = 0;
}

}  // namespace net
}  // namespace histkanon
