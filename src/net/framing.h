// Wire framing for the networked RPC front-end (DESIGN.md §15).
//
// Each direction of a connection is an independent byte stream:
//
//   stream := magic frame*             magic = "HKNETRP2" (8 bytes)
//   frame  := u32 length | u32 crc32(payload) | payload
//   payload:= u8 type | u8 version | u64 trace_id | body
//
// A client->server body is `u64 request_id | journal event record` (the
// EncodeJournalEvent bytes, src/ts/durability.h); reply bodies have their
// own per-type layouts (src/net/protocol.h).
//
// The frame layout deliberately reuses the durability layer's record
// framing (src/dur/framing.h: same little-endian header, same CRC-32,
// same incremental parser) — the wire is "a journal whose file is a
// socket", so every torn-tail/bit-rot guarantee the recovery scan proved
// carries over to hostile network bytes.  The differences are the magic
// (a journal must never be replayable as a connection, or vice versa) and
// a much smaller per-frame payload cap: a peer-supplied length prefix
// must never make the server allocate 64 MiB.
//
// FrameDecoder is the incremental, session-owned half: feed it whatever
// recv() produced (any chunking, including one byte at a time) and poll
// complete frames out.  Corruption — bad magic, oversized length, CRC
// mismatch, unknown version — is STICKY: once a stream desyncs there is
// no way to find the next frame boundary, so the decoder latches kError
// and the session must be closed (the server sends a final Error frame).
// tests/net_framing_fuzz_test.cc drives this with a mutating corpus.

#ifndef HISTKANON_SRC_NET_FRAMING_H_
#define HISTKANON_SRC_NET_FRAMING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace histkanon {
namespace net {

/// The 8-byte preamble each direction sends before its first frame.
std::string_view WireMagic();

/// Per-frame payload cap (1 MiB).  A length prefix beyond it is treated
/// as corruption; bounds what a hostile peer can make the server buffer.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

/// Payload header size: u8 type + u8 version + u64 trace_id.
inline constexpr size_t kFrameHeaderBytes = 10;

/// The protocol version every frame carries (bumped on incompatible
/// layout changes; a decoder rejects versions it does not speak).
inline constexpr uint8_t kProtocolVersion = 1;

/// \brief One decoded frame: the typed header plus the message body
/// (owned — valid independent of the decoder's internal buffer).
struct Frame {
  uint8_t type = 0;
  uint8_t version = kProtocolVersion;
  /// The request's causal-trace id (0 = untraced).  Replies carry the id
  /// the server allocated at admission, so a wire client can find its
  /// request in the Perfetto timeline.
  uint64_t trace_id = 0;
  std::string body;
};

/// Appends the wire magic to the start-of-stream buffer.
void AppendWireMagic(std::string* out);

/// Appends one framed message (header + body under one CRC) to `out`.
void AppendFrame(std::string* out, uint8_t type, uint64_t trace_id,
                 std::string_view body);

/// \brief Incremental frame decoder for one receive direction.
class FrameDecoder {
 public:
  enum class Poll : uint8_t {
    kFrame = 0,     ///< `*out` holds the next complete frame.
    kNeedMore = 1,  ///< No complete frame buffered; Feed() more bytes.
    kError = 2,     ///< Stream desynced (sticky); close the session.
  };

  /// Appends received bytes to the internal buffer.  No-op after an
  /// error (the session is already doomed; don't buffer garbage).
  void Feed(std::string_view bytes);

  /// Extracts the next complete frame, if any.
  Poll Next(Frame* out);

  /// True once the stream has desynced (sticky until Reset).
  bool failed() const { return failed_; }
  /// Why the stream desynced (empty while healthy).
  const std::string& error() const { return error_; }

  /// True once the peer's magic preamble has been consumed.
  bool saw_magic() const { return saw_magic_; }

  /// Bytes buffered but not yet consumed (partial-frame tail).
  size_t buffered() const { return buffer_.size() - consumed_; }

  /// Frames successfully decoded so far.
  uint64_t frames_decoded() const { return frames_decoded_; }

  /// Returns the decoder to its start-of-stream state (new connection).
  void Reset();

 private:
  Poll Fail(std::string message);

  std::string buffer_;
  size_t consumed_ = 0;
  bool saw_magic_ = false;
  bool failed_ = false;
  std::string error_;
  uint64_t frames_decoded_ = 0;
};

}  // namespace net
}  // namespace histkanon

#endif  // HISTKANON_SRC_NET_FRAMING_H_
