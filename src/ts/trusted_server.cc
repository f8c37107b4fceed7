#include "src/ts/trusted_server.h"

#include <algorithm>

#include "src/common/str.h"

namespace histkanon {
namespace ts {

namespace {

// Context-size histogram bounds: generalized areas span city blocks to
// whole cities (m^2), windows span minutes to a week (s).
const std::vector<double>& AreaBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
  return *bounds;
}

const std::vector<double>& WindowBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      60, 300, 900, 3600, 4.0 * 3600, 24.0 * 3600, 7.0 * 24 * 3600};
  return *bounds;
}

// Propagates the TS registry into the index options (the index is
// constructed in the member-initializer list, before the body can run).
stindex::GridIndexOptions IndexOptions(const TrustedServerOptions& options) {
  stindex::GridIndexOptions index = options.index;
  index.registry = options.registry;
  return index;
}

// RAII per-stage instrumentation: opens a causal child span when the
// request carries a trace context, and accumulates the stage's wall time
// into the request telemetry.  Does nothing — not even a clock read —
// when telemetry is disabled and no causal tracer rides along.
class StageScope {
 public:
  StageScope(RequestTelemetry* telemetry, Stage stage)
      : telemetry_(telemetry), stage_(static_cast<size_t>(stage)) {
    if (telemetry_->causal != nullptr) {
      causal_ = telemetry_->causal->StartSpan(
          telemetry_->ctx, std::string(StageToString(stage)),
          *telemetry_->track);
    }
    if (!telemetry_->enabled) return;
    start_ns_ = obs::MonotonicNanos();
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  ~StageScope() {
    causal_.End();
    if (!telemetry_->enabled) return;
    telemetry_->ran[stage_] = true;
    telemetry_->seconds[stage_] +=
        static_cast<double>(obs::MonotonicNanos() - start_ns_) * 1e-9;
  }

 private:
  RequestTelemetry* telemetry_;
  size_t stage_;
  obs::CausalSpan causal_;
  int64_t start_ns_ = 0;
};

}  // namespace

std::string_view DispositionToString(Disposition disposition) {
  switch (disposition) {
    case Disposition::kForwardedDefault:
      return "forwarded-default";
    case Disposition::kForwardedGeneralized:
      return "forwarded-generalized";
    case Disposition::kSuppressedMixZone:
      return "suppressed-mixzone";
    case Disposition::kUnlinked:
      return "unlinked";
    case Disposition::kAtRisk:
      return "at-risk";
    case Disposition::kRejected:
      return "rejected";
  }
  return "unknown";
}

std::string_view StageToString(Stage stage) {
  switch (stage) {
    case Stage::kLbqidMatch:
      return "lbqid_match";
    case Stage::kGeneralize:
      return "generalize";
    case Stage::kHkaEval:
      return "hka_eval";
    case Stage::kRandomize:
      return "randomize";
    case Stage::kUnlink:
      return "unlink";
    case Stage::kForward:
      return "forward";
  }
  return "unknown";
}

TrustedServer::TrustedServer(TrustedServerOptions options)
    : options_(options),
      index_(IndexOptions(options)),
      read_store_(options.read_store != nullptr ? options.read_store : &db_),
      read_index_(options.read_index != nullptr ? options.read_index
                                                : &index_),
      hka_(read_store_),
      pseudonyms_(options.pseudonym_seed),
      randomizer_(options.randomizer_seed, options.randomizer),
      breaker_(options.overload.breaker),
      seal_breaker_(options.retention.seal_breaker) {
  options_.generalizer.registry = options_.registry;
  // Tiered PHL storage (DESIGN.md §16), classic single-node wiring only:
  // with external read views the fan-out owner controls what the anonymity
  // layers see, and this server must not splice its own cold tier into
  // that view.  The tiered view wraps the server's own index + archive
  // and becomes the read index BEFORE the generalizer captures it.
  if (options_.retention.enabled && options.read_store == nullptr &&
      options.read_index == nullptr) {
    mod::ColdTierOptions cold_options;
    cold_options.dir = options_.retention.cold_dir;
    cold_options.max_resident_segments =
        options_.retention.max_resident_segments;
    cold_ = std::make_unique<mod::ColdTier>(std::move(cold_options));
    db_.AttachArchive(cold_.get());
    tiered_ = std::make_unique<stindex::TieredIndexView>(&index_, cold_.get(),
                                                         &db_);
    read_index_ = tiered_.get();
  }
  generalizer_ = std::make_unique<anon::Generalizer>(read_store_, read_index_,
                                                     options_.generalizer);
  monitor_.AttachRegistry(options_.registry);
  next_trace_id_ = options_.trace_id_seed == 0 ? 1 : options_.trace_id_seed;
  if (options_.slo != nullptr) {
    breaker_.AttachSloView(options_.slo, options_.trace_track);
  }
  obs_.enabled =
      options_.registry != nullptr || options_.event_sink != nullptr;
  if (options_.registry != nullptr) {
    obs::Registry& registry = *options_.registry;
    obs_.requests = registry.GetCounter("ts_requests_total");
    for (size_t d = 0; d < kDispositionCount; ++d) {
      std::string name = common::Format(
          "ts_disposition_%s_total",
          std::string(DispositionToString(static_cast<Disposition>(d)))
              .c_str());
      std::replace(name.begin(), name.end(), '-', '_');
      obs_.disposition[d] = registry.GetCounter(name);
    }
    obs_.lbqid_completions =
        registry.GetCounter("ts_lbqid_completed_requests_total");
    obs_.unlink_attempts = registry.GetCounter("ts_unlink_attempts_total");
    obs_.unlink_successes = registry.GetCounter("ts_unlink_successes_total");
    obs_.shed_requests = registry.GetCounter("ts_shed_requests_total");
    obs_.shed_events = registry.GetCounter("ts_shed_events_total");
    obs_.journal_failures =
        registry.GetCounter("ts_journal_failures_total");
    obs_.deadline_overruns =
        registry.GetCounter("ts_deadline_overruns_total");
    breaker_.AttachRegistry(&registry, "ts");
    for (size_t i = 0; i < kStageCount; ++i) {
      obs_.stage[i] = registry.GetHistogram(common::Format(
          "ts_stage_%s_seconds",
          std::string(StageToString(static_cast<Stage>(i))).c_str()));
    }
    obs_.batches = registry.GetCounter("ts_batches_total");
    obs_.batch_requests = registry.GetCounter("ts_batch_requests_total");
    obs_.batch_size = registry.GetHistogram(
        "ts_batch_size",
        std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    obs_.request_seconds = registry.GetHistogram("ts_request_seconds");
    obs_.generalized_area =
        registry.GetHistogram("ts_generalized_area_m2", AreaBounds());
    obs_.generalized_window =
        registry.GetHistogram("ts_generalized_window_seconds",
                              WindowBounds());
  }
}

common::Status TrustedServer::RegisterService(
    const anon::ServiceProfile& service) {
  // Write-ahead: journal before applying; an event that cannot be
  // journaled is suppressed fail-closed (the non-OK return).  Calls that
  // journal but fail VALIDATION below are journaled — the pipeline is
  // deterministic, so replay fails them identically.
  HISTKANON_RETURN_NOT_OK(JournalRegisterService(service));
  if (services_.count(service.id) > 0) {
    return common::Status::AlreadyExists(
        common::Format("service %d already registered", service.id));
  }
  services_.emplace(service.id, service);
  return common::Status::OK();
}

common::Status TrustedServer::RegisterUser(mod::UserId user,
                                           PrivacyPolicy policy) {
  HISTKANON_RETURN_NOT_OK(JournalRegisterUser(user, policy));
  if (users_.count(user) > 0) {
    return common::Status::AlreadyExists(common::Format(
        "user %lld already registered", static_cast<long long>(user)));
  }
  UserState state;
  state.policy = policy;
  users_.emplace(user, std::move(state));
  return common::Status::OK();
}

common::Result<size_t> TrustedServer::RegisterLbqid(mod::UserId user,
                                                    lbqid::Lbqid lbqid) {
  HISTKANON_RETURN_NOT_OK(JournalRegisterLbqid(user, lbqid));
  if (users_.count(user) == 0) {
    return common::Status::NotFound(common::Format(
        "user %lld is not registered", static_cast<long long>(user)));
  }
  return monitor_.Register(user, std::move(lbqid));
}

common::Status TrustedServer::SetUserRules(mod::UserId user,
                                           PolicyRuleSet rules) {
  HISTKANON_RETURN_NOT_OK(JournalSetUserRules(user, rules));
  const auto it = users_.find(user);
  if (it == users_.end()) {
    return common::Status::NotFound(common::Format(
        "user %lld is not registered", static_cast<long long>(user)));
  }
  it->second.policy = rules.fallback();
  it->second.rules = std::move(rules);
  return common::Status::OK();
}

TrustedServer::UserState& TrustedServer::StateOf(mod::UserId user) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    UserState state;
    state.policy = PrivacyPolicy::FromConcern(PrivacyConcern::kMedium);
    it = users_.emplace(user, std::move(state)).first;
  }
  return it->second;
}

const PrivacyPolicy& TrustedServer::ResolvePolicy(const UserState& state,
                                                  mod::ServiceId service,
                                                  geo::Instant t) const {
  if (state.rules.has_value()) return state.rules->PolicyFor(service, t);
  return state.policy;
}

const anon::ToleranceConstraints& TrustedServer::ToleranceOf(
    mod::ServiceId service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? default_tolerance_ : it->second.tolerance;
}

void TrustedServer::OnLocationUpdate(mod::UserId user,
                                     const geo::STPoint& sample) {
  // The EventSink interface has no error channel; a fail-closed
  // suppression is indistinguishable from a dropped sample here.  Callers
  // that need the distinction use ApplyLocationUpdate directly.
  (void)ApplyLocationUpdate(user, sample);
}

common::Status TrustedServer::ApplyLocationUpdate(mod::UserId user,
                                                  const geo::STPoint& sample) {
  HISTKANON_RETURN_NOT_OK(AdmitHotCapacity());
  HISTKANON_RETURN_NOT_OK(JournalUpdate(user, sample));
  // Out-of-order updates (same tick as an earlier sample) are dropped.
  if (db_.Append(user, sample).ok()) {
    index_.Insert(user, sample);
    MaybeSeal(sample.t);
  }
  return common::Status::OK();
}

common::Status TrustedServer::AdmitHotCapacity() {
  if (cold_ == nullptr || options_.retention.max_hot_samples == 0 ||
      db_.hot_samples() < options_.retention.max_hot_samples) {
    return common::Status::OK();
  }
  // Shed BEFORE journaling: the update is never admitted, so replay —
  // which sees only admitted events — is oblivious to the ceiling.
  ++hot_cap_sheds_;
  CountShed(/*is_request=*/false);
  return common::Status::Unavailable("hot tier at max_hot_samples ceiling");
}

void TrustedServer::MaybeSeal(geo::Instant t) {
  if (cold_ == nullptr) return;
  const RetentionOptions& retention = options_.retention;
  if (!seal_initialized_) {
    // The first ingested point pins the schedule's phase; everything the
    // schedule depends on from here is the admitted event stream.
    seal_initialized_ = true;
    next_seal_at_ =
        t + retention.hot_window_seconds + retention.seal_period_seconds;
    return;
  }
  if (t < next_seal_at_) return;
  // The schedule advances on ATTEMPT, success or not — so when a crashed
  // server is replayed, seals are re-attempted at exactly the same points
  // of the event stream, and segment seq (advanced on SUCCESS) assigns
  // the same numbers to the same contents (WriteSegment's tmp+rename is
  // an idempotent overwrite).
  next_seal_at_ = t + retention.seal_period_seconds;
  std::vector<std::pair<mod::UserId, std::vector<geo::STPoint>>> sealable;
  const size_t collected =
      db_.PeekSealable(t - retention.hot_window_seconds,
                       retention.min_hot_samples_per_user, &sealable);
  if (collected < retention.min_seal_samples || sealable.empty()) return;
  if (!seal_breaker_.Admit()) return;  // degraded: stay hot, skip the disk
  const common::Status sealed =
      cold_->WriteSegment(next_segment_seq_, sealable);
  if (!sealed.ok()) {
    // Fail-closed: nothing was evicted, answers are unchanged; memory
    // degrades toward unbounded rather than losing samples.
    ++seal_failures_;
    seal_breaker_.RecordFailure();
    return;
  }
  seal_breaker_.RecordSuccess();
  ++seals_;
  ++next_segment_seq_;
  // The segment is durable; only now do the samples leave the hot tier
  // (the "never half-evicted" contract — a crash between these lines
  // re-seals the same prefix on replay and overwrites the same file).
  for (const auto& [user, samples] : sealable) {
    for (const geo::STPoint& sample : samples) {
      index_.Remove(user, sample);
    }
  }
  db_.DropSealed(sealable);
}

void TrustedServer::TrimOutcomes() {
  const size_t max = options_.retention.max_outcomes;
  if (max == 0 || outcomes_.size() <= max * 2) return;
  // Amortized O(1): let the log grow to twice the bound, then drop the
  // oldest half in one move.
  outcomes_.erase(outcomes_.begin(),
                  outcomes_.begin() +
                      static_cast<std::ptrdiff_t>(outcomes_.size() - max));
}

void TrustedServer::OnServiceRequest(mod::UserId user,
                                     const geo::STPoint& exact,
                                     const sim::RequestIntent& intent) {
  ProcessRequest(user, exact, intent.service, intent.data);
}

void TrustedServer::TrimAnchors(std::vector<mod::UserId>* anchors,
                                size_t target,
                                const geo::STPoint& exact) const {
  if (anchors->size() <= target) return;
  std::vector<std::pair<double, mod::UserId>> scored;
  scored.reserve(anchors->size());
  for (const mod::UserId anchor : *anchors) {
    const common::Result<const mod::Phl*> phl = read_store_->GetPhl(anchor);
    double distance = std::numeric_limits<double>::infinity();
    if (phl.ok()) {
      // Through the generalizer's per-anchor memo: Algorithm 1's anchored
      // step right after asks for the same (anchor, exact) samples.
      const std::optional<geo::STPoint> nearest =
          generalizer_->CachedNearestSample(anchor, **phl, exact);
      if (nearest.has_value()) {
        distance = options_.generalizer.metric.Distance(*nearest, exact);
      }
    }
    scored.emplace_back(distance, anchor);
  }
  std::sort(scored.begin(), scored.end());
  anchors->clear();
  for (size_t i = 0; i < target; ++i) anchors->push_back(scored[i].second);
}

geo::STBox TrustedServer::RandomizeTranslate(const geo::STBox& box,
                                             const geo::STPoint& exact,
                                             mod::UserId user,
                                             uint64_t ordinal) {
  if (!options_.per_request_randomization) {
    return randomizer_.TranslateWithin(box, exact);
  }
  common::Rng rng(common::MixSeed(options_.randomizer_seed,
                                  static_cast<uint64_t>(user), ordinal));
  return anon::TranslateWithin(&rng, box, exact);
}

geo::STBox TrustedServer::RandomizeExpand(
    const geo::STBox& box, const anon::ToleranceConstraints& tolerance,
    mod::UserId user, uint64_t ordinal) {
  if (!options_.per_request_randomization) {
    return randomizer_.ExpandWithin(box, tolerance);
  }
  common::Rng rng(common::MixSeed(options_.randomizer_seed,
                                  static_cast<uint64_t>(user), ordinal));
  return anon::ExpandWithin(&rng, box, tolerance, options_.randomizer);
}

void TrustedServer::Forward(ProcessOutcome* outcome, mod::UserId user,
                            const geo::STPoint& exact, mod::ServiceId service,
                            const std::string& data,
                            const geo::STBox& context) {
  (void)exact;
  anon::ForwardedRequest request;
  request.msgid = next_msgid_++;
  request.pseudonym = pseudonyms_.Current(user);
  request.context = context;
  request.service = service;
  request.data = data;
  if (provider_ != nullptr) provider_->Handle(request);
  outcome->forwarded = true;
  outcome->forwarded_request = std::move(request);
}

void TrustedServer::CountShed(bool is_request) {
  ++shed_events_;
  if (obs_.shed_events != nullptr) obs_.shed_events->Increment();
  if (is_request) {
    ++shed_requests_;
    if (obs_.shed_requests != nullptr) obs_.shed_requests->Increment();
    if (options_.slo != nullptr) options_.slo->ObserveShed();
  }
}

ProcessOutcome TrustedServer::RecordShedRequest(const geo::STPoint& exact) {
  CountShed(/*is_request=*/true);
  ProcessOutcome outcome;
  outcome.disposition = Disposition::kRejected;
  outcome.exact = exact;
  outcomes_.push_back(outcome);
  TrimOutcomes();
  return outcome;
}

ProcessOutcome TrustedServer::ProcessRequest(mod::UserId user,
                                             const geo::STPoint& exact,
                                             mod::ServiceId service,
                                             const std::string& data) {
  if (options_.causal != nullptr) {
    return ProcessRequestTraced(user, exact, service, data);
  }
  if (!JournalRequest(user, exact, service, data).ok()) {
    // Fail-closed: the request was NOT journaled (degraded mode, or the
    // append itself failed), so it must not be applied — returning before
    // ANY state is touched (no stats, no PHL append, no pseudonym, no RNG
    // draw, no outcomes_ entry) is what makes suppression invisible to
    // replay and to linkability analysis.
    ProcessOutcome outcome;
    outcome.disposition = Disposition::kRejected;
    outcome.exact = exact;
    return outcome;
  }
  return ProcessAdmitted(user, exact, service, data);
}

// ProcessRequest with causal tracing attached.  Behavior is identical to
// the untraced path; the only extra state effect is the trace-id counter,
// which advances ONLY on successful admission so that journal replay
// (admitted events only) re-derives the same ids.
ProcessOutcome TrustedServer::ProcessRequestTraced(mod::UserId user,
                                                   const geo::STPoint& exact,
                                                   mod::ServiceId service,
                                                   const std::string& data) {
  obs::CausalTracer& causal = *options_.causal;
  const std::string user_attr =
      common::Format("%lld", static_cast<long long>(user));

  if (has_pending_ctx_) {
    // Sharded serve: admission (and the trace id) happened at the
    // front-end; this request rides its context instead of allocating.
    const obs::TraceContext ctx = pending_ctx_;
    has_pending_ctx_ = false;
    if (!JournalRequest(user, exact, service, data).ok()) {
      causal.RecordSpan(ctx, "shed", options_.trace_track,
                        obs::MonotonicNanos(), 0,
                        {{"shed_reason", admit_shed_reason_},
                         {"user", user_attr}});
      ProcessOutcome outcome;
      outcome.disposition = Disposition::kRejected;
      outcome.exact = exact;
      return outcome;
    }
    request_ctx_ = ctx;
    has_request_ctx_ = true;
    return ProcessAdmitted(user, exact, service, data);
  }

  // Serial admission: the span is retroactive because its trace id only
  // exists if admission succeeds (a shed request must not consume an id,
  // or replay would desynchronize).  Shed spans go to trace 0.
  admit_journal_ran_ = false;
  admit_shed_reason_ = "journal_error";
  const int64_t adm_start = obs::MonotonicNanos();
  const bool admitted = JournalRequest(user, exact, service, data).ok();
  const int64_t adm_dur = obs::MonotonicNanos() - adm_start;
  if (!admitted) {
    causal.RecordSpan(obs::TraceContext{}, "admission", options_.trace_track,
                      adm_start, adm_dur,
                      {{"shed_reason", admit_shed_reason_},
                       {"user", user_attr}});
    ProcessOutcome outcome;
    outcome.disposition = Disposition::kRejected;
    outcome.exact = exact;
    return outcome;
  }
  const uint64_t tid = next_trace_id_++;
  const uint64_t adm_span =
      causal.RecordSpan(obs::TraceContext{tid, 0}, "admission",
                        options_.trace_track, adm_start, adm_dur,
                        {{"user", user_attr}});
  if (admit_journal_ran_) {
    causal.RecordSpan(obs::TraceContext{tid, adm_span}, "journal_append",
                      options_.trace_track, admit_journal_start_ns_,
                      admit_journal_dur_ns_, {});
  }
  request_ctx_ = obs::TraceContext{tid, adm_span};
  has_request_ctx_ = true;
  return ProcessAdmitted(user, exact, service, data);
}

ProcessOutcome TrustedServer::ProcessAdmitted(mod::UserId user,
                                              const geo::STPoint& exact,
                                              mod::ServiceId service,
                                              const std::string& data) {
  const double deadline = options_.overload.request_deadline_seconds;
  RequestTelemetry telemetry;
  telemetry.enabled = obs_.enabled;
  const bool traced = options_.causal != nullptr && has_request_ctx_;
  obs::TraceContext request_parent;
  if (traced) {
    request_parent = request_ctx_;
    has_request_ctx_ = false;
  }
  if (!telemetry.enabled && !traced && options_.slo == nullptr &&
      deadline <= 0.0) {
    // Null-object fast path: no clock reads, no allocations beyond the
    // pipeline's own.
    const ProcessOutcome outcome =
        ProcessRequestImpl(user, exact, service, data, &telemetry);
    TrimOutcomes();
    return outcome;
  }
  obs::CausalSpan causal_root;
  if (traced) {
    causal_root = options_.causal->StartSpan(request_parent, "request",
                                             options_.trace_track);
    telemetry.causal = options_.causal;
    telemetry.ctx = causal_root.context();
    telemetry.track = &options_.trace_track;
  }
  const int64_t start_ns = obs::MonotonicNanos();
  const ProcessOutcome outcome =
      ProcessRequestImpl(user, exact, service, data, &telemetry);
  TrimOutcomes();
  const double total_seconds =
      static_cast<double>(obs::MonotonicNanos() - start_ns) * 1e-9;
  if (deadline > 0.0 && total_seconds > deadline) {
    // The deadline budget is an SLO signal, not a mid-pipeline abort: the
    // completed outcome stands (aborting after state changes would leak
    // partial state), the overrun is counted.
    ++deadline_overruns_;
    if (obs_.deadline_overruns != nullptr) obs_.deadline_overruns->Increment();
  }
  if (options_.slo != nullptr) options_.slo->ObserveLatency(total_seconds);
  if (causal_root.active()) {
    causal_root.AddAttribute(
        "user", common::Format("%lld", static_cast<long long>(user)));
    causal_root.AddAttribute(
        "disposition", std::string(DispositionToString(outcome.disposition)));
    causal_root.End();
  }
  if (!telemetry.enabled) return outcome;
  RecordRequest(outcome, telemetry, user, service, total_seconds);
  return outcome;
}

std::optional<size_t> TrustedServer::PrewarmProbeK(mod::UserId user,
                                                   const geo::STPoint& exact,
                                                   mod::ServiceId service) {
  // A shared nearest-users entry only pays off when serving this request
  // can reach Algorithm 1's line-5 anchor selection: some LBQID element
  // must match the exact context (Definition 2 — otherwise the monitor
  // yields no observation) on a trace that has no anchors yet (otherwise
  // the serve path reuses the anchored set and never queries the index).
  const UserState& state = StateOf(user);
  bool selects_anchors = false;
  const std::vector<const lbqid::Lbqid*> lbqids = monitor_.LbqidsOf(user);
  for (size_t j = 0; j < lbqids.size() && !selects_anchors; ++j) {
    const auto trace = state.traces.find(j);
    if (trace != state.traces.end() && !trace->second.anchors.empty()) {
      continue;
    }
    for (size_t e = 0; e < lbqids[j]->size(); ++e) {
      if (lbqids[j]->ElementMatches(e, exact)) {
        selects_anchors = true;
        break;
      }
    }
  }
  if (!selects_anchors) return std::nullopt;
  const PrivacyPolicy& policy = ResolvePolicy(state, service, exact.t);
  return policy.k_schedule.InitialAnchors(policy.k);
}

void TrustedServer::PrewarmRequest(mod::UserId user, const geo::STPoint& exact,
                                   mod::ServiceId service) {
  const std::optional<size_t> k = PrewarmProbeK(user, exact, service);
  if (k.has_value()) generalizer_->PrewarmNearestUsers(exact, *k);
}

std::vector<ProcessOutcome> TrustedServer::ProcessBatch(
    const std::vector<BatchRequest>& requests) {
  std::vector<ProcessOutcome> outcomes;
  outcomes.reserve(requests.size());
  if (requests.empty()) return outcomes;
  obs::CausalTracer* causal = options_.causal;
  const std::string size_attr = common::Format("%zu", requests.size());
  int64_t adm_start = 0;
  if (causal != nullptr) {
    admit_journal_ran_ = false;
    admit_shed_reason_ = "journal_error";
    adm_start = obs::MonotonicNanos();
  }
  if (!JournalBatch(requests).ok()) {
    // Fail-closed, like ProcessRequest: the window was not journaled, so
    // none of it may be applied — and no outcomes_ entries, so replay and
    // the outcome log agree.
    if (causal != nullptr) {
      causal->RecordSpan(obs::TraceContext{}, "batch_admission",
                         options_.trace_track, adm_start,
                         obs::MonotonicNanos() - adm_start,
                         {{"shed_reason", admit_shed_reason_},
                          {"batch_size", size_attr}});
    }
    for (const BatchRequest& request : requests) {
      ProcessOutcome outcome;
      outcome.disposition = Disposition::kRejected;
      outcome.exact = request.exact;
      outcomes.push_back(outcome);
    }
    return outcomes;
  }
  // The whole window rides one admission: request i gets trace id
  // base + i (the counter advances by the window size — replay of the
  // composite batch event does the same), all parented to one
  // batch_window span.
  uint64_t base_tid = 0;
  obs::CausalSpan batch_root;
  if (causal != nullptr) {
    const int64_t adm_dur = obs::MonotonicNanos() - adm_start;
    base_tid = next_trace_id_;
    next_trace_id_ += requests.size();
    const uint64_t adm_span = causal->RecordSpan(
        obs::TraceContext{base_tid, 0}, "batch_admission",
        options_.trace_track, adm_start, adm_dur,
        {{"batch_size", size_attr}});
    if (admit_journal_ran_) {
      causal->RecordSpan(obs::TraceContext{base_tid, adm_span},
                         "journal_append", options_.trace_track,
                         admit_journal_start_ns_, admit_journal_dur_ns_, {});
    }
    batch_root = causal->StartSpan(obs::TraceContext{base_tid, adm_span},
                                   "batch_window", options_.trace_track);
  }
  if (obs_.batches != nullptr) {
    obs_.batches->Increment();
    obs_.batch_requests->Increment(requests.size());
    obs_.batch_size->Observe(static_cast<double>(requests.size()));
  }
  // Ingest every request point up front: the whole window then answers
  // against one index snapshot.  Points an earlier event already ingested
  // (the PR-2 epoch-normalized replay does this) are no-ops — Append only
  // accepts strictly newer samples.
  for (const BatchRequest& request : requests) {
    if (db_.Append(request.user, request.exact).ok()) {
      index_.Insert(request.user, request.exact);
      MaybeSeal(request.exact.t);
    }
  }
  {
    // Prewarm on the DEDUPED probe set, sorted by grid cell: co-located
    // probes land adjacently (their shell scans touch the same pillar
    // column runs back to back), and each distinct (point, k) pays for
    // exactly one shared index query instead of one memo lookup per
    // request.
    obs::CausalSpan prewarm_span = obs::StartCausalSpan(
        causal, batch_root.context(), "prewarm", options_.trace_track);
    struct Probe {
      uint64_t cell = 0;
      geo::STPoint exact;
      size_t k = 0;
    };
    std::vector<Probe> probes;
    probes.reserve(requests.size());
    for (const BatchRequest& request : requests) {
      const std::optional<size_t> k =
          PrewarmProbeK(request.user, request.exact, request.service);
      if (!k.has_value()) continue;
      probes.push_back(
          Probe{index_.CellIdOf(request.exact), request.exact, *k});
    }
    std::sort(probes.begin(), probes.end(),
              [](const Probe& a, const Probe& b) {
                if (a.cell != b.cell) return a.cell < b.cell;
                if (a.exact.t != b.exact.t) return a.exact.t < b.exact.t;
                if (a.exact.p.x != b.exact.p.x) return a.exact.p.x < b.exact.p.x;
                if (a.exact.p.y != b.exact.p.y) return a.exact.p.y < b.exact.p.y;
                return a.k < b.k;
              });
    for (size_t i = 0; i < probes.size(); ++i) {
      const Probe& probe = probes[i];
      if (i > 0 && probes[i - 1].exact.t == probe.exact.t &&
          probes[i - 1].exact.p.x == probe.exact.p.x &&
          probes[i - 1].exact.p.y == probe.exact.p.y &&
          probes[i - 1].k == probe.k) {
        continue;  // identical probe — the first one already warmed it
      }
      generalizer_->PrewarmNearestUsers(probe.exact, probe.k);
    }
  }
  // Serve in ORIGINAL submission order, so the sequential streams
  // (msgids, pseudonym rotations, sequential-mode RNG draws, per-user
  // ordinals) advance exactly as the per-request path would.
  for (size_t i = 0; i < requests.size(); ++i) {
    const BatchRequest& request = requests[i];
    if (causal != nullptr) {
      request_ctx_ =
          obs::TraceContext{base_tid + i, batch_root.span_id()};
      has_request_ctx_ = true;
    }
    outcomes.push_back(ProcessAdmitted(request.user, request.exact,
                                       request.service, request.data));
  }
  return outcomes;
}

ProcessOutcome TrustedServer::ProcessRequestImpl(mod::UserId user,
                                                 const geo::STPoint& exact,
                                                 mod::ServiceId service,
                                                 const std::string& data,
                                                 RequestTelemetry* telemetry) {
  ProcessOutcome outcome;
  outcome.exact = exact;
  // Cold-tier fault barrier: any read fault between here and the commit
  // points below moves this counter, and the request is shed instead of
  // committed (a fault silently shrinks candidate/anchor sets, which
  // could otherwise forward a context whose anonymity set is too small).
  const uint64_t cold_faults_entry =
      cold_ == nullptr ? 0 : cold_->fault_count();
  ++stats_.requests;
  UserState& state = StateOf(user);
  const uint64_t ordinal = state.requests_seen++;
  const PrivacyPolicy& policy = ResolvePolicy(state, service, exact.t);
  const anon::ToleranceConstraints& tolerance = ToleranceOf(service);

  // The request's exact point is itself a location update (every request
  // has a PHL element, Section 5.3).
  if (db_.Append(user, exact).ok()) index_.Insert(user, exact);

  // Mix-zone quiet period: service disabled (Section 6.3, "temporarily
  // disabling the use of the service for a number of users in the same
  // area for the time sufficient to confuse the SP").
  if (exact.t < state.quiet_until) {
    outcome.disposition = Disposition::kSuppressedMixZone;
    ++stats_.suppressed_mixzone;
    outcomes_.push_back(outcome);
    return outcome;
  }

  // Step 1: LBQID monitoring.  The paper assumes each request matches an
  // element of at most one LBQID; with several, the first match wins.
  // The automata model what the SP observes; save their state so the
  // advance can be rolled back if this request ends up not forwarded.
  std::vector<lbqid::LbqidMatcher::Snapshot> monitor_snapshot;
  std::vector<lbqid::Observation> observations;
  {
    StageScope stage(telemetry, Stage::kLbqidMatch);
    monitor_snapshot = monitor_.SaveUser(user);
    observations = monitor_.ProcessPoint(user, exact);
  }

  size_t completions_this_request = 0;
  if (!observations.empty()) {
    const lbqid::Observation& observation = observations.front();
    outcome.matched_lbqid = true;
    outcome.lbqid_index = observation.lbqid_index;
    outcome.element_index = observation.event.element_index;
    // A completed LBQID counts as a (potential) release regardless of the
    // policy setting — with protection off, it IS released.  A request may
    // complete several LBQIDs at once.
    for (const lbqid::Observation& observed : observations) {
      if (observed.event.outcome == lbqid::MatchOutcome::kLbqidComplete) {
        ++completions_this_request;
      }
    }
    outcome.lbqid_completed = completions_this_request > 0;
    stats_.lbqid_completions += completions_this_request;
  }

  // Shed this request if a cold-tier read faulted since entry: the SP
  // sees nothing (like the at-risk "dropped" branch, the automata must
  // not have advanced), and the RPC layer maps kRejected to a Throttled
  // frame the client retries after the tier recovers.  The fault already
  // bumped the tiered view's epoch, so no memo can replay the partial
  // answer either.
  const auto shed_on_cold_fault = [&]() -> bool {
    if (cold_ == nullptr || cold_->fault_count() == cold_faults_entry) {
      return false;
    }
    monitor_.RestoreUser(user, monitor_snapshot);
    stats_.lbqid_completions -= completions_this_request;
    ++cold_fault_sheds_;
    CountShed(/*is_request=*/true);
    outcome = ProcessOutcome{};
    outcome.exact = exact;
    outcome.disposition = Disposition::kRejected;
    outcomes_.push_back(outcome);
    return true;
  };

  if (observations.empty() || policy.concern == PrivacyConcern::kOff) {
    outcome.disposition = Disposition::kForwardedDefault;
    const double scale = policy.concern == PrivacyConcern::kOff
                             ? 1.0
                             : policy.default_context_scale;
    geo::STBox context = generalizer_->DefaultContext(exact, tolerance, scale);
    if (options_.enable_randomization) {
      StageScope stage(telemetry, Stage::kRandomize);
      context = RandomizeTranslate(context, exact, user, ordinal);
    }
    {
      StageScope stage(telemetry, Stage::kForward);
      Forward(&outcome, user, exact, service, data, context);
    }
    ++stats_.forwarded_default;
    outcomes_.push_back(outcome);
    return outcome;
  }

  // Step 1 continued: Algorithm 1, once per matched LBQID (Section 6.2:
  // "the algorithm can be easily extended to consider multiple LBQIDs").
  // Each trace's k-covering box is computed with its own anchors; the
  // UNION is forwarded — a superset keeps every trace's anchors'
  // LT-consistency intact.
  const size_t k = policy.k;
  struct PendingUpdate {
    TraceState* trace;
    std::vector<mod::UserId> anchors;
  };
  std::vector<PendingUpdate> updates;
  geo::STBox union_box = geo::STBox::Empty();
  bool all_ok = true;
  {
    StageScope stage(telemetry, Stage::kGeneralize);
    for (const lbqid::Observation& observed : observations) {
      TraceState& trace = state.traces[observed.lbqid_index];
      // Anchor schedule (Section 6.2's k' heuristic), per trace.
      std::vector<mod::UserId> anchors = trace.anchors;
      size_t select_k = k;
      if (anchors.empty()) {
        select_k = policy.k_schedule.InitialAnchors(k);
      } else {
        TrimAnchors(&anchors, policy.k_schedule.AnchorsAtStep(k, trace.steps),
                    exact);
      }
      const anon::TraversalKey traversal{user, observed.lbqid_index,
                                         trace.steps};
      const common::Result<anon::GeneralizationResult> generalized =
          generalizer_->Generalize(exact, user, std::move(anchors), select_k,
                                   tolerance, traversal);
      if (!generalized.ok()) {
        all_ok = false;
        break;
      }
      if (!generalized->hk_anonymity) all_ok = false;
      union_box.ExpandToInclude(generalized->box);
      updates.push_back(PendingUpdate{&trace, generalized->anchors});
    }
  }
  {
    // HkA verdict on the combined context: individually-fitting boxes can
    // still union past the tolerance.
    StageScope stage(telemetry, Stage::kHkaEval);
    if (all_ok && !tolerance.Satisfies(union_box)) all_ok = false;
  }

  // Commit point for the generalization stages (anchor selection and HkA
  // both read through the tiered view).
  if (shed_on_cold_fault()) return outcome;

  if (all_ok) {
    geo::STBox context = union_box;
    if (options_.enable_randomization) {
      // Expansion (never translation): a superset keeps every anchor's
      // sample inside, preserving LT-consistency of the traces.
      StageScope stage(telemetry, Stage::kRandomize);
      context = RandomizeExpand(context, tolerance, user, ordinal);
    }
    for (PendingUpdate& update : updates) {
      update.trace->anchors = std::move(update.anchors);
      ++update.trace->steps;
      update.trace->contexts.push_back(context);
    }
    outcome.disposition = Disposition::kForwardedGeneralized;
    outcome.hk_anonymity = true;
    {
      StageScope stage(telemetry, Stage::kForward);
      Forward(&outcome, user, exact, service, data, context);
    }
    ++stats_.forwarded_generalized;
    stats_.generalized_area_sum += context.area.Area();
    stats_.generalized_window_sum +=
        static_cast<double>(context.time.Length());
    outcomes_.push_back(outcome);
    return outcome;
  }

  // Step 2: generalization failed -> try to unlink.
  outcome.hk_anonymity = false;
  if (options_.enable_unlinking) {
    StageScope stage(telemetry, Stage::kUnlink);
    ++stats_.unlink_attempts;
    anon::MixZoneOptions mixzone = options_.mixzone;
    mixzone.min_diverging_users = std::max(mixzone.min_diverging_users, k);
    const anon::MixZoneResult zone =
        anon::TryFormMixZone(*read_store_, exact, user, mixzone);
    // Commit point for the mix-zone scan (PHL reads may fault cold): a
    // zone formed over partial histories must not rotate anything.
    if (shed_on_cold_fault()) return outcome;
    if (zone.success) {
      ++stats_.unlink_successes;
      pseudonyms_.Rotate(user);
      monitor_.ResetUser(user);
      state.traces.clear();
      state.quiet_until = zone.quiet_until;
      outcome.disposition = Disposition::kUnlinked;
      outcomes_.push_back(outcome);
      return outcome;
    }
  }

  // Step 2 failed: "the user is considered at risk of identification, and
  // notified about it".
  ++stats_.at_risk_notifications;
  outcome.disposition = Disposition::kAtRisk;
  if (options_.forward_when_at_risk && !updates.empty()) {
    // Forward the union clipped to tolerance (Algorithm 1 lines 11-12).
    geo::STBox clipped = union_box;
    clipped.area = clipped.area.ShrunkToFit(exact.p, tolerance.max_area_width,
                                            tolerance.max_area_height);
    clipped.time = clipped.time.ShrunkToFit(exact.t,
                                            tolerance.max_time_window);
    for (PendingUpdate& update : updates) {
      update.trace->anchors = std::move(update.anchors);
      ++update.trace->steps;
      update.trace->contexts.push_back(clipped);
      update.trace->tainted = true;
    }
    StageScope stage(telemetry, Stage::kForward);
    Forward(&outcome, user, exact, service, data, clipped);
  } else {
    // Dropped: the SP never sees this request, so the automata must not
    // have advanced on it.
    monitor_.RestoreUser(user, monitor_snapshot);
    if (outcome.lbqid_completed) {
      stats_.lbqid_completions -= completions_this_request;
      outcome.lbqid_completed = false;
    }
  }
  outcomes_.push_back(outcome);
  return outcome;
}

void TrustedServer::RecordRequest(const ProcessOutcome& outcome,
                                  const RequestTelemetry& telemetry,
                                  mod::UserId user, mod::ServiceId service,
                                  double total_seconds) {
  if (options_.registry != nullptr) {
    obs_.requests->Increment();
    obs_.disposition[static_cast<size_t>(outcome.disposition)]->Increment();
    if (outcome.lbqid_completed) obs_.lbqid_completions->Increment();
    if (telemetry.ran[static_cast<size_t>(Stage::kUnlink)]) {
      obs_.unlink_attempts->Increment();
    }
    if (outcome.disposition == Disposition::kUnlinked) {
      obs_.unlink_successes->Increment();
    }
    for (size_t i = 0; i < kStageCount; ++i) {
      if (telemetry.ran[i]) obs_.stage[i]->Observe(telemetry.seconds[i]);
    }
    obs_.request_seconds->Observe(total_seconds);
    if (outcome.disposition == Disposition::kForwardedGeneralized) {
      const geo::STBox& context = outcome.forwarded_request.context;
      obs_.generalized_area->Observe(context.area.Area());
      obs_.generalized_window->Observe(
          static_cast<double>(context.time.Length()));
    }
  }
  if (options_.event_sink != nullptr) {
    obs::JsonObject event;
    event.SetUint("seq", stats_.requests);
    event.SetInt("t", outcome.exact.t);
    // The event log leaves the trusted boundary only pseudonymized; after
    // an unlink this is already the rotated pseudonym.
    event.SetString("pseudonym", outcome.forwarded
                                     ? outcome.forwarded_request.pseudonym
                                     : pseudonyms_.Current(user));
    event.SetInt("service", service);
    event.SetString("disposition",
                    DispositionToString(outcome.disposition));
    event.SetBool("forwarded", outcome.forwarded);
    event.SetBool("hk_anonymity", outcome.hk_anonymity);
    event.SetBool("matched_lbqid", outcome.matched_lbqid);
    if (outcome.matched_lbqid) {
      event.SetUint("lbqid_index", outcome.lbqid_index);
      event.SetUint("element_index", outcome.element_index);
      event.SetBool("lbqid_completed", outcome.lbqid_completed);
    }
    if (outcome.forwarded) {
      const geo::STBox& context = outcome.forwarded_request.context;
      event.SetNumber("area_m2", context.area.Area());
      event.SetInt("window_s", context.time.Length());
    }
    obs::JsonObject stages;
    for (size_t i = 0; i < kStageCount; ++i) {
      if (!telemetry.ran[i]) continue;
      stages.SetNumber(std::string(StageToString(static_cast<Stage>(i))),
                       telemetry.seconds[i] * 1e6);
    }
    if (!stages.empty()) event.SetRaw("stages_us", stages.ToString());
    event.SetNumber("total_us", total_seconds * 1e6);
    options_.event_sink->Append(event.ToString());
  }
}

std::vector<geo::STBox> TrustedServer::CurrentTraceContexts(
    mod::UserId user) const {
  std::vector<geo::STBox> contexts;
  const auto it = users_.find(user);
  if (it == users_.end()) return contexts;
  for (const auto& [lbqid_index, trace] : it->second.traces) {
    contexts.insert(contexts.end(), trace.contexts.begin(),
                    trace.contexts.end());
  }
  return contexts;
}

std::vector<geo::STBox> TrustedServer::TraceContextsOf(
    mod::UserId user, size_t lbqid_index) const {
  const auto it = users_.find(user);
  if (it == users_.end()) return {};
  const auto trace = it->second.traces.find(lbqid_index);
  if (trace == it->second.traces.end()) return {};
  return trace->second.contexts;
}

anon::HkaResult TrustedServer::EvaluateTraceHka(mod::UserId user,
                                                size_t lbqid_index) const {
  obs::ScopedTimer timer(obs_.stage[static_cast<size_t>(Stage::kHkaEval)]);
  const auto it = users_.find(user);
  const size_t k = it == users_.end() ? 0 : it->second.policy.k;
  return hka_.Evaluate(user, TraceContextsOf(user, lbqid_index), k);
}

std::vector<TrustedServer::TraceAudit> TrustedServer::AuditTraces() const {
  std::vector<TraceAudit> audits;
  for (const auto& [user, state] : users_) {
    for (const auto& [lbqid_index, trace] : state.traces) {
      if (trace.contexts.empty()) continue;
      TraceAudit audit;
      audit.user = user;
      audit.lbqid_index = lbqid_index;
      audit.steps = trace.contexts.size();
      audit.tainted = trace.tainted;
      obs::ScopedTimer timer(
          obs_.stage[static_cast<size_t>(Stage::kHkaEval)]);
      const anon::HkaResult hka =
          hka_.Evaluate(user, trace.contexts, state.policy.k);
      timer.Stop();
      audit.hka_satisfied = hka.satisfied;
      audit.witnesses = hka.consistent_others;
      audits.push_back(audit);
    }
  }
  return audits;
}

anon::HkaResult TrustedServer::EvaluateUserHka(mod::UserId user) const {
  obs::ScopedTimer timer(obs_.stage[static_cast<size_t>(Stage::kHkaEval)]);
  const auto it = users_.find(user);
  const size_t k = it == users_.end() ? 0 : it->second.policy.k;
  return hka_.Evaluate(user, CurrentTraceContexts(user), k);
}

}  // namespace ts
}  // namespace histkanon
