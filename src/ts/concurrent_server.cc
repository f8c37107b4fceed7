#include "src/ts/concurrent_server.h"

#include <algorithm>
#include <utility>

#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/ts/durability.h"

namespace histkanon {
namespace ts {

namespace {
/// The front-end's causal-trace track (admission + journal spans; the
/// per-shard tracks are "shard_<i>").
const std::string kFrontendTrack = "frontend";
}  // namespace

ConcurrentServer::ConcurrentServer(ConcurrentServerOptions options)
    : options_(std::move(options)), breaker_(options_.breaker) {
  const size_t n = options_.num_shards == 0 ? 1 : options_.num_shards;
  store_ = std::make_unique<mod::ShardedObjectStore>();
  view_ = std::make_unique<stindex::ShardedIndexView>();
  ingest_done_ = std::make_unique<std::barrier<>>(static_cast<ptrdiff_t>(n));
  step_ = std::make_unique<std::barrier<>>(static_cast<ptrdiff_t>(n));
  serve_done_ = std::make_unique<std::barrier<>>(static_cast<ptrdiff_t>(n));
  pending_counts_.assign(n, 0);
  per_shard_requests_.assign(n, 0);

  Shard::SharedPhase phase;
  phase.ingest_done = ingest_done_.get();
  phase.step = step_.get();
  phase.serve_done = serve_done_.get();
  phase.pending_counts = &pending_counts_;
  phase.lockstep = options_.lockstep;

  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TrustedServerOptions shard_options = options_.server;
    // Distinct per-shard pseudonym streams (two shards must never issue
    // the same pseudonym for different users).
    shard_options.pseudonym_seed =
        common::MixSeed(options_.server.pseudonym_seed, i);
    // The determinism contract requires order-independent draws.
    shard_options.per_request_randomization = true;
    // Global fan-out views for the anonymity layers' reads.
    shard_options.read_store = store_.get();
    shard_options.read_index = view_.get();
    // The event sink is not thread-safe; the registry's handles are
    // atomic and stay shared.  The causal tracer and SLO view are
    // internally synchronized and stay shared too, each shard recording
    // on its own track.
    shard_options.event_sink = nullptr;
    shard_options.trace_track = common::Format("shard_%zu", i);
    // Shard servers never allocate trace ids (the front-end does); their
    // SLO latency/shed observations flow into the shared view.
    shards_.push_back(std::make_unique<Shard>(i, options_.queue_capacity,
                                              shard_options, phase,
                                              options_.queue_deadline_seconds));
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    store_->AddSlice(&shard->server().db());
    view_->AddSlice(&shard->server().index());
  }
  next_trace_id_ =
      options_.server.trace_id_seed == 0 ? 1 : options_.server.trace_id_seed;
  if (options_.server.slo != nullptr) {
    breaker_.AttachSloView(options_.server.slo, kFrontendTrack);
  }
  if (options_.server.registry != nullptr) {
    obs::Registry& registry = *options_.server.registry;
    breaker_.AttachRegistry(&registry, "cs");
    shed_requests_counter_ = registry.GetCounter("cs_shed_requests_total");
    shed_events_counter_ = registry.GetCounter("cs_shed_events_total");
    shed_queue_full_counter_ = registry.GetCounter("cs_shed_queue_full_total");
    journal_failures_counter_ =
        registry.GetCounter("cs_journal_failures_total");
  }
  for (const std::unique_ptr<Shard>& shard : shards_) shard->Start();
}

ConcurrentServer::~ConcurrentServer() { Finish(); }

void ConcurrentServer::CountShed(bool is_request) {
  ++shed_events_;
  if (shed_events_counter_ != nullptr) shed_events_counter_->Increment();
  if (is_request) {
    ++shed_requests_;
    if (shed_requests_counter_ != nullptr) shed_requests_counter_->Increment();
  }
}

common::Status ConcurrentServer::FrontEndAdmit(const JournalEvent& event) {
  const bool traced = options_.server.causal != nullptr;
  if (!breaker_.Admit()) {
    if (traced) admit_shed_reason_ = "degraded";
    return common::Status::Unavailable(
        "concurrent server degraded: event suppressed fail-closed");
  }
  if (options_.journal != nullptr) {
    // Back-fill epoch markers that were emitted to the shards while the
    // journal was failing, so journal epochs stay aligned with the epochs
    // the shards actually ran.
    while (pending_epoch_ends_ > 0) {
      JournalEvent marker;
      marker.kind = JournalEvent::Kind::kEpochEnd;
      common::Status status = options_.journal->AppendEvent(marker);
      if (!status.ok()) {
        ++journal_failures_;
        if (journal_failures_counter_ != nullptr) {
          journal_failures_counter_->Increment();
        }
        breaker_.RecordFailure();
        return status;
      }
      --pending_epoch_ends_;
    }
    const int64_t append_start = traced ? obs::MonotonicNanos() : 0;
    common::Status status = options_.journal->AppendEvent(event);
    if (traced) {
      admit_journal_start_ns_ = append_start;
      admit_journal_dur_ns_ = obs::MonotonicNanos() - append_start;
      admit_journal_ran_ = true;
    }
    if (!status.ok()) {
      if (traced) admit_shed_reason_ = "journal_error";
      ++journal_failures_;
      if (journal_failures_counter_ != nullptr) {
        journal_failures_counter_->Increment();
      }
      breaker_.RecordFailure();
      return status;
    }
  }
  breaker_.RecordSuccess();
  ++admitted_events_;
  return common::Status::OK();
}

bool ConcurrentServer::AdmitData(Shard* owner, const JournalEvent& event,
                                 bool is_request) {
  streaming_started_ = true;
  // Reserve queue capacity FIRST: under a shed/fail policy the drop
  // decision must precede the journal append (a journaled-then-shed event
  // would replay as applied).
  if (options_.full_queue_policy == FullQueuePolicy::kBlock) {
    owner->AcquireSlot();
  } else {
    const int64_t timeout_ms =
        options_.full_queue_policy == FullQueuePolicy::kShed
            ? options_.enqueue_timeout_ms
            : 0;
    if (!owner->TryAcquireSlot(timeout_ms)) {
      if (options_.server.causal != nullptr) {
        admit_shed_reason_ = "queue_full";
      }
      ++shed_queue_full_;
      if (shed_queue_full_counter_ != nullptr) shed_queue_full_counter_->Increment();
      CountShed(is_request);
      last_submit_error_ =
          common::Status::Unavailable("shard queue full: event shed");
      return false;
    }
  }
  common::Status status = FrontEndAdmit(event);
  if (!status.ok()) {
    owner->CancelSlot();
    CountShed(is_request);
    last_submit_error_ = std::move(status);
    return false;
  }
  last_submit_error_ = common::Status::OK();
  return true;
}

common::Status ConcurrentServer::RegisterService(
    const anon::ServiceProfile& service) {
  // Write-ahead: journal before applying.  A failing registration is
  // journaled too — the pipeline is deterministic, so replay fails it
  // identically.  A failing APPEND, though, suppresses the registration
  // entirely (fail-closed).
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterService;
  event.service = service;
  common::Status admitted = FrontEndAdmit(event);
  if (!admitted.ok()) {
    CountShed(false);
    last_submit_error_ = admitted;
    return admitted;
  }
  last_submit_error_ = common::Status::OK();
  common::Status status = common::Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    common::Status s = shard->server().RegisterService(service);
    if (!s.ok()) status = s;
  }
  return status;
}

common::Status ConcurrentServer::RegisterUser(mod::UserId user,
                                              PrivacyPolicy policy) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterUser;
  event.user = user;
  event.policy = policy;
  common::Status admitted = FrontEndAdmit(event);
  if (!admitted.ok()) {
    CountShed(false);
    last_submit_error_ = admitted;
    return admitted;
  }
  last_submit_error_ = common::Status::OK();
  return OwnerOf(user)->server().RegisterUser(user, policy);
}

common::Result<size_t> ConcurrentServer::RegisterLbqid(mod::UserId user,
                                                       lbqid::Lbqid lbqid) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterLbqid;
  event.user = user;
  event.lbqid = std::make_shared<const lbqid::Lbqid>(lbqid);
  common::Status admitted = FrontEndAdmit(event);
  if (!admitted.ok()) {
    CountShed(false);
    last_submit_error_ = admitted;
    return admitted;
  }
  last_submit_error_ = common::Status::OK();
  return OwnerOf(user)->server().RegisterLbqid(user, std::move(lbqid));
}

common::Status ConcurrentServer::SetUserRules(mod::UserId user,
                                              PolicyRuleSet rules) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kSetRules;
  event.user = user;
  event.rules = std::make_shared<const PolicyRuleSet>(rules);
  common::Status admitted = FrontEndAdmit(event);
  if (!admitted.ok()) {
    CountShed(false);
    last_submit_error_ = admitted;
    return admitted;
  }
  last_submit_error_ = common::Status::OK();
  return OwnerOf(user)->server().SetUserRules(user, std::move(rules));
}

bool ConcurrentServer::SubmitLocationUpdate(mod::UserId user,
                                            const geo::STPoint& sample) {
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kUpdate;
  journal_event.user = user;
  journal_event.point = sample;
  Shard* owner = OwnerOf(user);
  if (!AdmitData(owner, journal_event, /*is_request=*/false)) return false;
  ShardEvent event;
  event.kind = ShardEvent::Kind::kLocationUpdate;
  event.user = user;
  event.point = sample;
  owner->PushReserved(std::move(event));
  return true;
}

size_t ConcurrentServer::SubmitRequest(mod::UserId user,
                                       const geo::STPoint& exact,
                                       mod::ServiceId service,
                                       std::string data) {
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kRequest;
  journal_event.user = user;
  journal_event.point = exact;
  journal_event.service_id = service;
  journal_event.data = data;
  obs::CausalTracer* causal = options_.server.causal;
  int64_t adm_start = 0;
  if (causal != nullptr) {
    admit_journal_ran_ = false;
    admit_shed_reason_ = "journal_error";
    adm_start = obs::MonotonicNanos();
  }
  const size_t shard = ShardOf(user);
  if (!AdmitData(shards_[shard].get(), journal_event, /*is_request=*/true)) {
    // Shed: no ordinal, no submissions_ entry (the realignment map stays
    // dense over the requests that actually reached a shard).  The shed
    // span goes to trace 0 — no id was consumed, so replay (admitted
    // events only) re-derives the same id sequence.
    if (causal != nullptr) {
      causal->RecordSpan(
          obs::TraceContext{}, "admission", kFrontendTrack, adm_start,
          obs::MonotonicNanos() - adm_start,
          {{"shed_reason", admit_shed_reason_},
           {"user", common::Format("%lld", static_cast<long long>(user))}});
    }
    return kShedSubmission;
  }
  ShardEvent event;
  event.kind = ShardEvent::Kind::kRequest;
  event.user = user;
  event.point = exact;
  event.service = service;
  event.data = std::move(data);
  if (causal != nullptr) {
    // Retroactive, like the serial server: the trace id exists only once
    // admission succeeded.
    const int64_t adm_dur = obs::MonotonicNanos() - adm_start;
    const uint64_t tid = next_trace_id_++;
    const uint64_t adm_span = causal->RecordSpan(
        obs::TraceContext{tid, 0}, "admission", kFrontendTrack, adm_start,
        adm_dur,
        {{"user", common::Format("%lld", static_cast<long long>(user))}});
    if (admit_journal_ran_) {
      causal->RecordSpan(obs::TraceContext{tid, adm_span}, "journal_append",
                         kFrontendTrack, admit_journal_start_ns_,
                         admit_journal_dur_ns_, {});
    }
    event.trace = obs::TraceContext{tid, adm_span};
  }
  if (options_.queue_deadline_seconds > 0.0 || causal != nullptr) {
    event.enqueue_ns = obs::MonotonicNanos();
  }
  const size_t seq = submissions_.size();
  submissions_.emplace_back(shard, per_shard_requests_[shard]++);
  shards_[shard]->PushReserved(std::move(event));
  return seq;
}

bool ConcurrentServer::SubmitRegisterUser(mod::UserId user,
                                          PrivacyPolicy policy) {
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kRegisterUser;
  journal_event.user = user;
  journal_event.policy = policy;
  Shard* owner = OwnerOf(user);
  if (!AdmitData(owner, journal_event, /*is_request=*/false)) return false;
  ShardEvent event;
  event.kind = ShardEvent::Kind::kRegisterUser;
  event.user = user;
  event.policy = policy;
  owner->PushReserved(std::move(event));
  return true;
}

bool ConcurrentServer::SubmitRegisterLbqid(mod::UserId user,
                                           lbqid::Lbqid lbqid) {
  auto shared = std::make_shared<const lbqid::Lbqid>(std::move(lbqid));
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kRegisterLbqid;
  journal_event.user = user;
  journal_event.lbqid = shared;
  Shard* owner = OwnerOf(user);
  if (!AdmitData(owner, journal_event, /*is_request=*/false)) return false;
  ShardEvent event;
  event.kind = ShardEvent::Kind::kRegisterLbqid;
  event.user = user;
  event.lbqid = std::move(shared);
  owner->PushReserved(std::move(event));
  return true;
}

bool ConcurrentServer::SubmitSetUserRules(mod::UserId user,
                                          PolicyRuleSet rules) {
  auto shared = std::make_shared<const PolicyRuleSet>(std::move(rules));
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kSetRules;
  journal_event.user = user;
  journal_event.rules = shared;
  Shard* owner = OwnerOf(user);
  if (!AdmitData(owner, journal_event, /*is_request=*/false)) return false;
  ShardEvent event;
  event.kind = ShardEvent::Kind::kSetUserRules;
  event.user = user;
  event.rules = std::move(shared);
  owner->PushReserved(std::move(event));
  return true;
}

void ConcurrentServer::EndEpoch() {
  // Control-plane: the markers below are emitted no matter what happens
  // to the marker's journal append — suppressing them would wedge the
  // barrier machinery and Finish().  An unjournaled marker is remembered
  // in pending_epoch_ends_ and back-filled by the next successful admit.
  JournalEvent journal_event;
  journal_event.kind = JournalEvent::Kind::kEpochEnd;
  common::Status admitted = FrontEndAdmit(journal_event);
  if (!admitted.ok()) {
    ++pending_epoch_ends_;
    last_submit_error_ = admitted;
  } else {
    last_submit_error_ = common::Status::OK();
  }
  streaming_started_ = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardEvent event;
    event.kind = ShardEvent::Kind::kEpochEnd;
    // Markers always use the blocking enqueue: they must reach every
    // shard exactly once regardless of the full-queue policy.
    shard->Enqueue(std::move(event));
  }
}

void ConcurrentServer::Finish() {
  if (finished_) return;
  finished_ = true;
  // A final (possibly empty) epoch flushes whatever was submitted since
  // the last EndEpoch, then the workers exit.
  EndEpoch();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardEvent event;
    event.kind = ShardEvent::Kind::kShutdown;
    shard->Enqueue(std::move(event));
  }
  for (const std::unique_ptr<Shard>& shard : shards_) shard->Join();
  // Realign the per-shard processing logs into global submission order.
  // Shed submissions never got an entry; shard-level deadline sheds DID
  // (RecordShedRequest keeps the per-shard logs dense), so indices line
  // up either way.
  outcomes_.clear();
  outcomes_.reserve(submissions_.size());
  for (const auto& [shard, ordinal] : submissions_) {
    outcomes_.push_back(shards_[shard]->server().outcomes()[ordinal]);
  }
}

std::vector<ProcessOutcome> ConcurrentServer::DrainWindow() {
  std::vector<ProcessOutcome> window;
  if (finished_) return window;
  // Flush the open window: after the markers, every worker ingests, meets
  // the barrier, and serves.  The sync events below are BEHIND the
  // markers in each queue (same single producer), so a worker acks only
  // after its serve phase — and serve_done means every OTHER shard
  // finished too.
  EndEpoch();
  auto collector = std::make_shared<CheckpointCollector>();
  collector->remaining = shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardEvent event;
    event.kind = ShardEvent::Kind::kSync;
    event.checkpoint = collector;
    shard->Enqueue(std::move(event));
  }
  {
    std::unique_lock<std::mutex> lock(collector->mu);
    collector->cv.wait(lock,
                       [&collector] { return collector->remaining == 0; });
  }
  // All workers are idle in Pop() (nothing is queued behind the sync), so
  // reading their outcome logs here is race-free — the same quiescence
  // argument Checkpoint() relies on, with the collector mutex carrying
  // the happens-before edge.
  window.reserve(submissions_.size() - drained_through_);
  for (size_t i = drained_through_; i < submissions_.size(); ++i) {
    const auto& [shard, ordinal] = submissions_[i];
    window.push_back(shards_[shard]->server().outcomes()[ordinal]);
  }
  drained_through_ = submissions_.size();
  return window;
}

void ConcurrentServer::RegisterResourceProbes(
    obs::ResourceAccountant* accountant, const std::string& prefix) const {
  if (accountant == nullptr) return;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->server().RegisterResourceProbes(
        accountant, common::Format("%sshard%zu_", prefix.c_str(), i));
  }
  accountant->RegisterProbe(prefix + "journal", [this] {
    return static_cast<uint64_t>(
        options_.journal == nullptr ? 0 : options_.journal->size());
  });
}

uint64_t ConcurrentServer::deadline_sheds() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->deadline_sheds();
  }
  return total;
}

TsStats ConcurrentServer::stats() const {
  TsStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const TsStats& s = shard->server().stats();
    total.requests += s.requests;
    total.forwarded_default += s.forwarded_default;
    total.forwarded_generalized += s.forwarded_generalized;
    total.suppressed_mixzone += s.suppressed_mixzone;
    total.unlink_attempts += s.unlink_attempts;
    total.unlink_successes += s.unlink_successes;
    total.at_risk_notifications += s.at_risk_notifications;
    total.lbqid_completions += s.lbqid_completions;
    total.generalized_area_sum += s.generalized_area_sum;
    total.generalized_window_sum += s.generalized_window_sum;
  }
  return total;
}

std::vector<TrustedServer::TraceAudit> ConcurrentServer::AuditTraces() const {
  std::vector<TrustedServer::TraceAudit> audits;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<TrustedServer::TraceAudit> part =
        shard->server().AuditTraces();
    audits.insert(audits.end(), part.begin(), part.end());
  }
  std::sort(audits.begin(), audits.end(),
            [](const TrustedServer::TraceAudit& a,
               const TrustedServer::TraceAudit& b) {
              if (a.user != b.user) return a.user < b.user;
              return a.lbqid_index < b.lbqid_index;
            });
  return audits;
}

anon::HkaResult ConcurrentServer::EvaluateTraceHka(mod::UserId user,
                                                   size_t lbqid_index) const {
  return shards_[ShardOf(user)]->server().EvaluateTraceHka(user, lbqid_index);
}

}  // namespace ts
}  // namespace histkanon
