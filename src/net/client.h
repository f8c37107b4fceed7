// Blocking client for the HKNETRP2 RPC protocol: one loopback TCP
// connection, request-id correlation, and an out-of-order reply stash so
// callers can interleave fire-and-forget updates with awaited requests.
// Every send carries the journal event record of its input (protocol.h).
// Used by the conformance tests and (as N independent instances or via
// the raw framing helpers) by bench/loadgen.

#ifndef HISTKANON_SRC_NET_CLIENT_H_
#define HISTKANON_SRC_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/net/framing.h"
#include "src/net/protocol.h"

namespace histkanon {
namespace net {

/// \brief One reply as received off the wire: the decoded body plus the
/// trace id from the frame header (the Perfetto handle for this request).
struct WireReply {
  ReplyMsg msg;
  uint64_t trace_id = 0;
};

/// \brief Retry policy for RequestWithRetry: capped exponential backoff
/// with deterministic jitter, honoring the server's Throttled
/// `retry_after_ms` hint as a floor.
struct RetryOptions {
  /// Total tries, including the first.  1 = no retries.
  int max_attempts = 5;
  /// Backoff before retry i (0-based) is `initial_backoff_ms << i`,
  /// capped at `max_backoff_ms`, then jittered into [1/2, 1] of itself
  /// so a synchronized fleet of clients decorrelates.
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 2000;
  /// Wall-clock budget for the whole send+retry sequence; once sleeping
  /// would cross it, the last Throttled reply is returned as-is.  Zero
  /// means no deadline.
  double deadline_seconds = 0.0;
  /// Seed for the jitter PRNG, mixed with the user id so identical
  /// configs still spread.  Deterministic for a given (seed, user,
  /// attempt) — load tests stay reproducible.
  uint64_t jitter_seed = 1;
};

/// \brief What a RequestWithRetry call actually did, for load reporting.
struct RetryStats {
  int attempts = 0;
  int throttled_replies = 0;
  uint64_t backoff_ms_total = 0;
  /// True when the sequence gave up on the deadline rather than on
  /// attempts or success.
  bool deadline_exhausted = false;
};

/// \brief A blocking HKNETRP2 connection.
class RpcClient {
 public:
  RpcClient() = default;
  ~RpcClient() { Close(); }

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Connects to 127.0.0.1:`port` and sends the wire magic.
  common::Status Connect(uint16_t port);

  /// Closes the connection (idempotent).
  void Close();

  bool connected() const { return fd_ >= 0; }
  /// The raw socket, for tests that need byte-level control (chaos tests
  /// send partial frames and hard-close).
  int fd() const { return fd_; }

  // -- Sends.  Each returns the request id chosen for the message (echo
  // correlation) or an error when the connection is gone.  `trace_id` is
  // what the frame header carries (0 = let the server allocate).

  common::Result<uint64_t> SendRegister(mod::UserId user,
                                        const ts::PrivacyPolicy& policy,
                                        uint64_t trace_id = 0);
  common::Result<uint64_t> SendUpdate(mod::UserId user,
                                      const geo::STPoint& sample,
                                      uint64_t trace_id = 0);
  common::Result<uint64_t> SendRequest(mod::UserId user,
                                       const geo::STPoint& exact,
                                       mod::ServiceId service,
                                       std::string data,
                                       uint64_t trace_id = 0);
  /// kRegisterLbqid / kSetRules: `journal_event` is EncodeJournalEvent
  /// bytes whose kind matches `type` (the other sends build theirs from
  /// their arguments).
  common::Result<uint64_t> SendEvent(MsgType type, std::string journal_event,
                                     uint64_t trace_id = 0);
  /// Asks the server to close its batch window now (no reply).
  common::Status SendEndEpoch();

  // -- Receives.

  /// Sends a service request and waits for its reply, retrying Throttled
  /// replies under `options` (capped exponential backoff + jitter, the
  /// server's `retry_after_ms` honored as a floor).  Returns the first
  /// non-Throttled reply; when attempts or the deadline run out, returns
  /// the LAST Throttled reply so callers can see the shed reason.
  /// Transport errors are not retried — a lost connection needs a
  /// reconnect, which is the caller's decision.
  common::Result<WireReply> RequestWithRetry(mod::UserId user,
                                             const geo::STPoint& exact,
                                             mod::ServiceId service,
                                             std::string data,
                                             const RetryOptions& options,
                                             uint64_t trace_id = 0,
                                             RetryStats* stats = nullptr);

  /// The backoff RequestWithRetry would sleep before 0-based retry
  /// `attempt` (exposed for tests: pure function of the inputs).
  static uint32_t RetryBackoffMs(const RetryOptions& options,
                                 mod::UserId user, int attempt,
                                 uint32_t retry_after_ms);

  /// Blocks until the reply for `request_id` arrives.  Replies for other
  /// request ids received meanwhile are stashed and returned by their own
  /// WaitReply later.  Fails when the server closes the connection first.
  common::Result<WireReply> WaitReply(uint64_t request_id);

  /// Blocks until ANY reply arrives (stash first), e.g. a shed update's
  /// Throttled.
  common::Result<WireReply> WaitAnyReply();

  /// Drains replies already received without blocking (stash + whatever
  /// the socket has buffered).  OK with an empty stash is normal.
  common::Status PollReplies();
  /// The stashed not-yet-claimed replies, keyed by request id.
  std::map<uint64_t, WireReply>& stash() { return stash_; }

 private:
  common::Result<uint64_t> SendFrame(MsgType type, uint64_t trace_id,
                                     const std::string& body);
  common::Status WriteAll(const char* data, size_t size);
  /// Reads one recv() worth of bytes into the decoder; `blocking` selects
  /// MSG_DONTWAIT.  False = connection closed (status explains).
  common::Status ReadSome(bool blocking, bool* progressed);
  /// Decodes buffered frames into the stash; stops on `until` if found.
  common::Result<bool> DrainDecoded(uint64_t until, bool any,
                                    WireReply* out);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
  std::map<uint64_t, WireReply> stash_;
};

}  // namespace net
}  // namespace histkanon

#endif  // HISTKANON_SRC_NET_CLIENT_H_
