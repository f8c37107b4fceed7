#include "src/net/protocol.h"

#include <optional>

#include "src/dur/encode.h"

namespace histkanon {
namespace net {

namespace {

// Frames a journal event as a client body: u64 request_id, then the
// EncodeJournalEvent bytes to the end of the body.
std::string EventBody(uint64_t request_id, const ts::JournalEvent& event) {
  return EncodeEvent(EventMsg{request_id, ts::EncodeJournalEvent(event)});
}

// The one journal event kind each client frame type may carry.
std::optional<ts::JournalEvent::Kind> ClientEventKind(MsgType type) {
  switch (type) {
    case MsgType::kRegister:
      return ts::JournalEvent::Kind::kRegisterUser;
    case MsgType::kUpdate:
      return ts::JournalEvent::Kind::kUpdate;
    case MsgType::kRequest:
      return ts::JournalEvent::Kind::kRequest;
    case MsgType::kRegisterLbqid:
      return ts::JournalEvent::Kind::kRegisterLbqid;
    case MsgType::kSetRules:
      return ts::JournalEvent::Kind::kSetRules;
    default:
      return std::nullopt;
  }
}

common::Status CheckDrained(const dur::ByteReader& reader) {
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument("trailing bytes after message");
  }
  return common::Status::OK();
}

common::Status ReadDisposition(dur::ByteReader* reader,
                               ts::Disposition* disposition) {
  uint8_t raw = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU8(&raw));
  if (raw >= ts::kDispositionCount) {
    return common::Status::InvalidArgument("disposition byte out of range");
  }
  *disposition = static_cast<ts::Disposition>(raw);
  return common::Status::OK();
}

}  // namespace

std::string_view MsgTypeToString(MsgType type) {
  switch (type) {
    case MsgType::kRegister:
      return "register";
    case MsgType::kUpdate:
      return "update";
    case MsgType::kRequest:
      return "request";
    case MsgType::kEndEpoch:
      return "end_epoch";
    case MsgType::kRegisterLbqid:
      return "register_lbqid";
    case MsgType::kSetRules:
      return "set_rules";
    case MsgType::kRegisterAck:
      return "register_ack";
    case MsgType::kResponseBox:
      return "response_box";
    case MsgType::kSuppressed:
      return "suppressed";
    case MsgType::kUnlinked:
      return "unlinked";
    case MsgType::kThrottled:
      return "throttled";
    case MsgType::kError:
      return "error";
  }
  return "unknown";
}

std::string EncodeRegister(const RegisterMsg& msg) {
  ts::JournalEvent event;
  event.kind = ts::JournalEvent::Kind::kRegisterUser;
  event.user = msg.user;
  event.policy = msg.policy;
  return EventBody(msg.request_id, event);
}

std::string EncodeUpdate(const UpdateMsg& msg) {
  ts::JournalEvent event;
  event.kind = ts::JournalEvent::Kind::kUpdate;
  event.user = msg.user;
  event.point = msg.sample;
  return EventBody(msg.request_id, event);
}

std::string EncodeRequest(const RequestMsg& msg) {
  ts::JournalEvent event;
  event.kind = ts::JournalEvent::Kind::kRequest;
  event.user = msg.user;
  event.point = msg.exact;
  event.service_id = msg.service;
  event.data = msg.data;
  return EventBody(msg.request_id, event);
}

std::string EncodeEvent(const EventMsg& msg) {
  dur::ByteWriter writer;
  writer.PutU64(msg.request_id);
  std::string body = writer.TakeBytes();
  body += msg.journal_event;
  return body;
}

common::Result<ts::JournalEvent> DecodeClientEvent(
    MsgType type, std::string_view body,
    const tgran::GranularityRegistry* granularities, uint64_t* request_id) {
  dur::ByteReader reader(body);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(request_id));
  const std::optional<ts::JournalEvent::Kind> kind = ClientEventKind(type);
  if (!kind.has_value()) {
    return common::Status::InvalidArgument("not a client event frame type");
  }
  const bool names_granularities =
      *kind == ts::JournalEvent::Kind::kRegisterLbqid ||
      *kind == ts::JournalEvent::Kind::kSetRules;
  if (names_granularities && granularities == nullptr) {
    return common::Status::FailedPrecondition(
        "server has no granularity registry for event frames");
  }
  // Update/request/register events name no granularity, so an empty
  // registry decodes them when the server was given none.
  static const tgran::GranularityRegistry kNoGranularities;
  HISTKANON_ASSIGN_OR_RETURN(
      ts::JournalEvent event,
      ts::DecodeJournalEvent(
          body.substr(sizeof(uint64_t)),
          granularities == nullptr ? kNoGranularities : *granularities));
  if (event.kind != *kind) {
    return common::Status::InvalidArgument(
        "journal-event kind does not match the frame type");
  }
  return event;
}

std::string EncodeReply(const ReplyMsg& msg) {
  dur::ByteWriter writer;
  writer.PutU64(msg.request_id);
  switch (msg.type) {
    case MsgType::kRegisterAck:
    case MsgType::kError:
      writer.PutU32(msg.code);
      writer.PutString(msg.message);
      break;
    case MsgType::kResponseBox:
      writer.PutU8(static_cast<uint8_t>(msg.disposition));
      writer.PutI64(msg.msgid);
      writer.PutString(msg.pseudonym);
      ts::PutBox(&writer, msg.context);
      writer.PutI32(msg.service);
      writer.PutString(msg.data);
      break;
    case MsgType::kSuppressed:
      writer.PutU8(static_cast<uint8_t>(msg.disposition));
      break;
    case MsgType::kUnlinked:
      break;
    case MsgType::kThrottled:
      writer.PutU32(msg.retry_after_ms);
      writer.PutString(msg.reason);
      break;
    default:
      break;
  }
  return writer.TakeBytes();
}

common::Result<ReplyMsg> DecodeReply(MsgType type, std::string_view body) {
  dur::ByteReader reader(body);
  ReplyMsg msg;
  msg.type = type;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&msg.request_id));
  switch (type) {
    case MsgType::kRegisterAck:
    case MsgType::kError:
      HISTKANON_RETURN_NOT_OK(reader.ReadU32(&msg.code));
      HISTKANON_RETURN_NOT_OK(reader.ReadString(&msg.message));
      break;
    case MsgType::kResponseBox:
      HISTKANON_RETURN_NOT_OK(ReadDisposition(&reader, &msg.disposition));
      HISTKANON_RETURN_NOT_OK(reader.ReadI64(&msg.msgid));
      HISTKANON_RETURN_NOT_OK(reader.ReadString(&msg.pseudonym));
      HISTKANON_RETURN_NOT_OK(ts::ReadBox(&reader, &msg.context));
      HISTKANON_RETURN_NOT_OK(reader.ReadI32(&msg.service));
      HISTKANON_RETURN_NOT_OK(reader.ReadString(&msg.data));
      break;
    case MsgType::kSuppressed:
      HISTKANON_RETURN_NOT_OK(ReadDisposition(&reader, &msg.disposition));
      break;
    case MsgType::kUnlinked:
      break;
    case MsgType::kThrottled:
      HISTKANON_RETURN_NOT_OK(reader.ReadU32(&msg.retry_after_ms));
      HISTKANON_RETURN_NOT_OK(reader.ReadString(&msg.reason));
      break;
    default:
      return common::Status::InvalidArgument("not a reply frame type");
  }
  HISTKANON_RETURN_NOT_OK(CheckDrained(reader));
  return msg;
}

ReplyMsg ReplyForOutcome(uint64_t request_id,
                         const ts::ProcessOutcome& outcome,
                         uint32_t retry_after_ms) {
  ReplyMsg reply;
  reply.request_id = request_id;
  reply.disposition = outcome.disposition;
  if (outcome.forwarded) {
    reply.type = MsgType::kResponseBox;
    reply.msgid = outcome.forwarded_request.msgid;
    reply.pseudonym = outcome.forwarded_request.pseudonym;
    reply.context = outcome.forwarded_request.context;
    reply.service = outcome.forwarded_request.service;
    reply.data = outcome.forwarded_request.data;
    return reply;
  }
  switch (outcome.disposition) {
    case ts::Disposition::kUnlinked:
      reply.type = MsgType::kUnlinked;
      break;
    case ts::Disposition::kRejected:
      // A shard-level deadline shed: surfaced as backpressure, not as a
      // privacy suppression (the request never entered the pipeline).
      reply.type = MsgType::kThrottled;
      reply.retry_after_ms = retry_after_ms;
      reply.reason = "queue_deadline";
      break;
    default:
      reply.type = MsgType::kSuppressed;
      break;
  }
  return reply;
}

}  // namespace net
}  // namespace histkanon
