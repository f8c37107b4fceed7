// Message types and body codecs of the HKNETRP2 RPC protocol
// (DESIGN.md §15).  Every message body is encoded with the durability
// layer's little-endian primitives (dur::ByteWriter/ByteReader), so wire
// bytes are platform-independent and every decoder treats truncation as a
// typed error, never UB.
//
// Correlation model: every client->server message carries a client-chosen
// `request_id`; every reply echoes it.  Requests always get exactly one
// reply (ResponseBox / Suppressed / Unlinked / Throttled / Error);
// Register gets a RegisterAck (or Throttled); location updates are
// fire-and-forget on the happy path but STILL get a Throttled reply when
// shed — the protocol never drops silently.
//
// One codec per event: every client->server body (except the empty
// kEndEpoch) is `u64 request_id | EncodeJournalEvent(event)` — the wire
// carries exactly the record the write-ahead journal stores for that
// input (src/ts/durability.h), so src/net has no field layout of its own
// for any client message.  A client may send only the five client kinds
// (register user, location update, service request, LBQID, rules), each
// under its own frame type; service registrations, epoch markers and
// batch windows are server-side events and are refused.

#ifndef HISTKANON_SRC_NET_PROTOCOL_H_
#define HISTKANON_SRC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/geo/point.h"
#include "src/geo/stbox.h"
#include "src/mod/types.h"
#include "src/net/framing.h"
#include "src/tgran/granularity.h"
#include "src/ts/durability.h"
#include "src/ts/policy.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace net {

/// Frame types.  Client->server requests live in 0x01..0x0f, server->
/// client replies in 0x10..0x1f; an unknown type is a protocol error.
enum class MsgType : uint8_t {
  // -- client -> server
  kRegister = 0x01,       ///< Register a user with a privacy policy.
  kUpdate = 0x02,         ///< Location update (fire-and-forget unless shed).
  kRequest = 0x03,        ///< Service request (always answered).
  kEndEpoch = 0x04,       ///< Close the server's batch window now.
  kRegisterLbqid = 0x05,  ///< Attach an LBQID.
  kSetRules = 0x06,       ///< Attach an expert rule set.
  // -- server -> client
  kRegisterAck = 0x10,  ///< Registration admitted (code 0) or failed.
  kResponseBox = 0x11,  ///< Forwarded: msgid, pseudonym, generalized box.
  kSuppressed = 0x12,   ///< Suppressed (mix-zone quiet / at-risk dropped).
  kUnlinked = 0x13,     ///< Suppressed AND the pseudonym was rotated.
  kThrottled = 0x14,    ///< Shed by overload protection; retry later.
  kError = 0x15,        ///< Protocol or server error.
};

/// "register" / "response_box" / ... (diagnostics and counter names).
std::string_view MsgTypeToString(MsgType type);

// -- Client -> server bodies -------------------------------------------------
//
// The *Msg structs are the builders' inputs; each Encode* turns one into
// the journal event the matching ConcurrentServer::Submit* call journals.

/// \brief kRegister body: the full quantitative policy (not just the
/// qualitative dial) so a wire registration is bit-equivalent to an
/// in-process RegisterUser call.
struct RegisterMsg {
  uint64_t request_id = 0;
  mod::UserId user = mod::kInvalidUser;
  ts::PrivacyPolicy policy;
};

/// \brief kUpdate body.
struct UpdateMsg {
  uint64_t request_id = 0;
  mod::UserId user = mod::kInvalidUser;
  geo::STPoint sample;
};

/// \brief kRequest body.
struct RequestMsg {
  uint64_t request_id = 0;
  mod::UserId user = mod::kInvalidUser;
  geo::STPoint exact;
  mod::ServiceId service = 0;
  std::string data;
};

/// \brief Any client body with the journal event already encoded
/// (EncodeJournalEvent bytes whose kind must match the frame type) —
/// how callers send kRegisterLbqid / kSetRules.
struct EventMsg {
  uint64_t request_id = 0;
  std::string journal_event;
};

// -- Server -> client bodies -------------------------------------------------

/// \brief Every reply decoded into one struct; `type` says which fields
/// are meaningful.  (The wire encodes only the fields of the given type.)
struct ReplyMsg {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  /// kResponseBox / kSuppressed: the server-side disposition.
  ts::Disposition disposition = ts::Disposition::kForwardedDefault;
  /// kResponseBox: the forwarded view (paper Section 3's SP tuple).
  mod::MessageId msgid = 0;
  std::string pseudonym;
  geo::STBox context;
  mod::ServiceId service = 0;
  std::string data;
  /// kThrottled: client backoff hint + shed reason.
  uint32_t retry_after_ms = 0;
  std::string reason;
  /// kRegisterAck / kError: status code (0 = OK) + message.
  uint32_t code = 0;
  std::string message;
};

// -- Body codecs -------------------------------------------------------------
//
// Encode* returns the BODY bytes (frame it with AppendFrame); the decoders
// parse a frame body and fail with InvalidArgument/OutOfRange on
// malformed input (hostile bytes are expected — fuzzed in
// tests/net_framing_fuzz_test.cc).

std::string EncodeRegister(const RegisterMsg& msg);
std::string EncodeUpdate(const UpdateMsg& msg);
std::string EncodeRequest(const RequestMsg& msg);
std::string EncodeEvent(const EventMsg& msg);

/// The server's one decode entry for a client frame of type `type`:
/// reads the request id into `*request_id` (set as soon as it is read, so
/// an Error reply can echo it), decodes the journal event, and
/// checks its kind is the one `type` carries.  kRegisterLbqid/kSetRules
/// bodies resolve granularity names through `granularities` and are
/// refused (FailedPrecondition) when it is null; the other kinds name no
/// granularity and decode without one.
common::Result<ts::JournalEvent> DecodeClientEvent(
    MsgType type, std::string_view body,
    const tgran::GranularityRegistry* granularities, uint64_t* request_id);

std::string EncodeReply(const ReplyMsg& msg);
/// `type` is the frame type the body arrived under.
common::Result<ReplyMsg> DecodeReply(MsgType type, std::string_view body);

/// Builds the reply for one served request outcome: kResponseBox when it
/// was forwarded, kUnlinked for a pseudonym rotation, kThrottled for a
/// shard-level deadline shed (kRejected), kSuppressed otherwise.
ReplyMsg ReplyForOutcome(uint64_t request_id, const ts::ProcessOutcome& outcome,
                         uint32_t retry_after_ms);

}  // namespace net
}  // namespace histkanon

#endif  // HISTKANON_SRC_NET_PROTOCOL_H_
