// Integration tests of the observability wiring on the trusted server:
// per-stage latency histograms, disposition counters vs TsStats, causal
// span trees, the structured event log, and the null-object contract
// (identical behavior with no registry attached).

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/event_log.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/causal_trace.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace ts {
namespace {

using geo::Point;
using geo::Rect;
using geo::STPoint;
using tgran::At;

constexpr Rect kHome{0, 0, 200, 200};
constexpr Rect kOffice{5000, 5000, 5400, 5400};

lbqid::Lbqid CommuteLbqid() {
  tgran::GranularityRegistry registry =
      tgran::GranularityRegistry::WithDefaults();
  auto recurrence = tgran::Recurrence::Parse("3.weekdays * 2.week", registry);
  EXPECT_TRUE(recurrence.ok());
  auto hours = [](int a, int b) {
    return *tgran::UTimeInterval::FromHours(a, b);
  };
  auto lbqid = lbqid::Lbqid::Create("commute",
                                    {{kHome, hours(7, 9)},
                                     {kOffice, hours(7, 10)},
                                     {kOffice, hours(16, 18)},
                                     {kHome, hours(16, 19)}},
                                    *recurrence);
  EXPECT_TRUE(lbqid.ok());
  return *lbqid;
}

// Co-moving companions shadowing the commute (same shape as
// trusted_server_test.cc).
void PopulateCompanions(TrustedServer* server, size_t n) {
  for (size_t u = 1; u <= n; ++u) {
    const double offset = 10.0 * static_cast<double>(u);
    for (int64_t day = 0; day < 14; ++day) {
      server->OnLocationUpdate(static_cast<mod::UserId>(u),
                               STPoint{{100 + offset, 100}, At(day, 7, 40)});
      server->OnLocationUpdate(
          static_cast<mod::UserId>(u),
          STPoint{{5200 + offset, 5200}, At(day, 8, 20)});
      server->OnLocationUpdate(
          static_cast<mod::UserId>(u),
          STPoint{{5200 + offset, 5200}, At(day, 16, 50)});
      server->OnLocationUpdate(static_cast<mod::UserId>(u),
                               STPoint{{100 + offset, 100}, At(day, 17, 40)});
    }
  }
}

std::vector<STPoint> DayRequests(int64_t day) {
  return {STPoint{{100, 100}, At(day, 7, 45)},
          STPoint{{5200, 5200}, At(day, 8, 25)},
          STPoint{{5200, 5200}, At(day, 16, 55)},
          STPoint{{100, 100}, At(day, 17, 45)}};
}

// A diverging crowd around the home point so a mix zone can form (same
// shape as trusted_server_test.cc's unlinking test).
void PopulateDivergingCrowd(TrustedServer* server) {
  for (mod::UserId u = 1; u <= 60; ++u) {
    const double angle = 2.0 * M_PI * static_cast<double>(u) / 61.0;
    const Point via{100 + static_cast<double>(u % 7), 100};
    server->OnLocationUpdate(
        u, STPoint{{via.x - 500 * std::cos(angle),
                    via.y - 500 * std::sin(angle)},
                   At(0, 7, 35)});
    server->OnLocationUpdate(u, STPoint{via, At(0, 7, 45)});
    server->OnLocationUpdate(
        u, STPoint{{via.x + 500 * std::cos(angle),
                    via.y + 500 * std::sin(angle)},
                   At(0, 7, 55)});
  }
}

const obs::Histogram* FindHistogram(const obs::Registry& registry,
                                    const std::string& name) {
  for (const auto& [histogram_name, histogram] : registry.Histograms()) {
    if (histogram_name == name) return histogram;
  }
  return nullptr;
}

uint64_t CounterValue(const obs::Registry& registry,
                      const std::string& name) {
  for (const auto& [counter_name, value] : registry.CounterValues()) {
    if (counter_name == name) return value;
  }
  return 0;
}

// Runs every disposition through servers sharing one registry / causal
// tracer / event sink: generalized + default (server A), unlinked + suppressed
// (server B), at-risk (server C).  Returns the total request count.
size_t RunMixedScenario(obs::Registry* registry, obs::CausalTracer* causal,
                        obs::EventSink* sink) {
  size_t requests = 0;
  TrustedServerOptions options;
  options.registry = registry;
  options.causal = causal;
  options.event_sink = sink;

  {
    TrustedServer server(options);
    PrivacyPolicy policy = PrivacyPolicy::FromConcern(PrivacyConcern::kLow);
    policy.k_schedule = anon::KSchedule{};  // Plain Algorithm 1.
    EXPECT_TRUE(server.RegisterUser(0, policy).ok());
    EXPECT_TRUE(server.RegisterLbqid(0, CommuteLbqid()).ok());
    EXPECT_TRUE(
        server
            .RegisterUser(100,
                          PrivacyPolicy::FromConcern(PrivacyConcern::kLow))
            .ok());
    PopulateCompanions(&server, 6);
    for (const int64_t day : {0, 1, 2}) {
      for (const STPoint& exact : DayRequests(day)) {
        const ProcessOutcome outcome =
            server.ProcessRequest(0, exact, 0, "data");
        EXPECT_EQ(outcome.disposition, Disposition::kForwardedGeneralized);
        ++requests;
      }
    }
    server.ProcessRequest(100, STPoint{{3000, 3000}, At(0, 12)}, 0, "x");
    ++requests;
  }

  {
    // Distinct trace-id ranges keep the three servers' traces apart in
    // the one shared causal tracer.
    TrustedServerOptions unlink_options = options;
    unlink_options.trace_id_seed = 1000;
    unlink_options.mixzone.min_displacement = 5.0;
    TrustedServer server(unlink_options);
    PrivacyPolicy policy =
        PrivacyPolicy::FromConcern(PrivacyConcern::kMedium);
    policy.k = 50;  // Unattainably high: generalization always fails.
    EXPECT_TRUE(server.RegisterUser(0, policy).ok());
    EXPECT_TRUE(server.RegisterLbqid(0, CommuteLbqid()).ok());
    PopulateDivergingCrowd(&server);
    EXPECT_EQ(server.ProcessRequest(0, STPoint{{100, 100}, At(0, 7, 45)}, 0,
                                    "go")
                  .disposition,
              Disposition::kUnlinked);
    ++requests;
    EXPECT_EQ(server.ProcessRequest(0, STPoint{{120, 100}, At(0, 7, 50)}, 0,
                                    "go")
                  .disposition,
              Disposition::kSuppressedMixZone);
    ++requests;
  }

  {
    TrustedServerOptions at_risk_options = options;
    at_risk_options.trace_id_seed = 2000;
    at_risk_options.enable_unlinking = false;
    TrustedServer server(at_risk_options);
    EXPECT_TRUE(server
                    .RegisterUser(0, PrivacyPolicy::FromConcern(
                                         PrivacyConcern::kMedium))
                    .ok());
    EXPECT_TRUE(server.RegisterLbqid(0, CommuteLbqid()).ok());
    EXPECT_EQ(server.ProcessRequest(0, STPoint{{100, 100}, At(0, 7, 45)}, 0,
                                    "go")
                  .disposition,
              Disposition::kAtRisk);
    ++requests;
  }
  return requests;
}

TEST(TsObsTest, StageHistogramsCoverTheServingPath) {
  obs::Registry registry;
  const size_t requests = RunMixedScenario(&registry, nullptr, nullptr);

  // The acceptance set: every named stage observed at least once.
  for (const std::string stage :
       {"lbqid_match", "generalize", "hka_eval", "unlink", "forward"}) {
    const obs::Histogram* histogram =
        FindHistogram(registry, "ts_stage_" + stage + "_seconds");
    ASSERT_NE(histogram, nullptr) << stage;
    EXPECT_GT(histogram->count(), 0u) << stage;
  }
  const obs::Histogram* total =
      FindHistogram(registry, "ts_request_seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), requests);

  // Disposition counters partition the request counter.
  EXPECT_EQ(CounterValue(registry, "ts_requests_total"), requests);
  EXPECT_EQ(
      CounterValue(registry, "ts_disposition_forwarded_default_total") +
          CounterValue(registry,
                       "ts_disposition_forwarded_generalized_total") +
          CounterValue(registry, "ts_disposition_suppressed_mixzone_total") +
          CounterValue(registry, "ts_disposition_unlinked_total") +
          CounterValue(registry, "ts_disposition_at_risk_total"),
      requests);
  EXPECT_EQ(CounterValue(registry, "ts_disposition_unlinked_total"), 1u);
  EXPECT_EQ(CounterValue(registry, "ts_disposition_at_risk_total"), 1u);
  EXPECT_EQ(CounterValue(registry, "ts_unlink_successes_total"), 1u);

  // Instrumented components record into the same registry.
  EXPECT_GT(CounterValue(registry, "stindex_grid_inserts_total"), 0u);
  // The one suppressed request short-circuits before LBQID matching.
  EXPECT_EQ(CounterValue(registry, "lbqid_monitor_points_total"),
            requests - 1);
  EXPECT_GT(CounterValue(registry, "anon_generalize_calls_total"), 0u);

  // Both exporters carry the stage histograms.
  const std::string prometheus = obs::ToPrometheusText(registry);
  EXPECT_NE(prometheus.find("# TYPE ts_stage_generalize_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prometheus.find("ts_stage_unlink_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prometheus.find("ts_requests_total"), std::string::npos);
  const std::string json = obs::ToJson(registry);
  EXPECT_NE(json.find("\"ts_stage_hka_eval_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"ts_requests_total\":"), std::string::npos);
}

TEST(TsObsTest, TracerBuildsOneSpanTreePerRequest) {
  obs::Registry registry;
  obs::CausalTracer causal;
  RunMixedScenario(&registry, &causal, nullptr);
  const std::vector<obs::CausalSpanRecord> records = causal.Records();

  // One "request" span per admitted request, each in its own trace.
  std::map<uint64_t, const obs::CausalSpanRecord*> request_of_trace;
  for (const obs::CausalSpanRecord& record : records) {
    if (record.name != "request") continue;
    EXPECT_EQ(request_of_trace.count(record.trace_id), 0u)
        << "trace " << record.trace_id;
    request_of_trace[record.trace_id] = &record;
  }
  EXPECT_EQ(request_of_trace.size(),
            CounterValue(registry, "ts_requests_total"));

  // Every stage span hangs off its trace's request span.
  std::vector<std::string> stage_names;
  for (size_t s = 0; s < kStageCount; ++s) {
    stage_names.emplace_back(StageToString(static_cast<Stage>(s)));
  }
  size_t stage_children = 0;
  for (const obs::CausalSpanRecord& record : records) {
    if (std::find(stage_names.begin(), stage_names.end(), record.name) ==
        stage_names.end()) {
      continue;
    }
    const auto it = request_of_trace.find(record.trace_id);
    ASSERT_NE(it, request_of_trace.end()) << record.name;
    EXPECT_EQ(record.parent_span, it->second->span_id) << record.name;
    ++stage_children;
  }
  // At least one stage per request.
  EXPECT_GT(stage_children, request_of_trace.size());

  // The request span carries the final disposition as an attribute.
  bool saw_unlinked = false;
  for (const auto& [trace_id, request] : request_of_trace) {
    bool has_disposition = false;
    for (const auto& [key, value] : request->attributes) {
      if (key != "disposition") continue;
      has_disposition = true;
      if (value == "unlinked") saw_unlinked = true;
    }
    EXPECT_TRUE(has_disposition) << "trace " << trace_id;
  }
  EXPECT_TRUE(saw_unlinked);
}

TEST(TsObsTest, EventLogEmitsOneParsableRecordPerRequest) {
  obs::Registry registry;
  obs::VectorEventSink sink;
  const size_t requests = RunMixedScenario(&registry, nullptr, &sink);

  ASSERT_EQ(sink.lines().size(), requests);
  size_t generalized = 0;
  for (const std::string& line : sink.lines()) {
    const auto parsed = obs::ParseFlatJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->count("seq"), 1u);
    EXPECT_EQ(parsed->count("pseudonym"), 1u);
    EXPECT_EQ(parsed->count("disposition"), 1u);
    EXPECT_EQ(parsed->count("total_us"), 1u);
    // Only the suppressed request (short-circuits before any stage) lacks
    // per-stage latencies.
    if (parsed->at("disposition") != "suppressed-mixzone") {
      EXPECT_EQ(parsed->count("stages_us"), 1u) << line;
    }
    if (parsed->at("disposition") != "forwarded-generalized") continue;
    ++generalized;
    // Generalized events carry the published context and stage latencies.
    EXPECT_EQ(parsed->count("area_m2"), 1u);
    EXPECT_EQ(parsed->count("window_s"), 1u);
    EXPECT_NE(parsed->at("stages_us").find("generalize"), std::string::npos);
  }
  EXPECT_EQ(generalized,
            CounterValue(registry,
                         "ts_disposition_forwarded_generalized_total"));
}

TEST(TsObsTest, NoRegistryBehaviorIsIdentical) {
  // The null-object contract: the same deterministic workload, with and
  // without observability attached, produces identical dispositions,
  // contexts, pseudonyms, and stats.
  auto run = [](bool instrumented, std::vector<std::string>* trace) {
    obs::Registry registry;
    obs::CausalTracer causal;
    obs::VectorEventSink sink;
    TrustedServerOptions options;
    if (instrumented) {
      options.registry = &registry;
      options.causal = &causal;
      options.event_sink = &sink;
    }
    TrustedServer server(options);
    PrivacyPolicy policy = PrivacyPolicy::FromConcern(PrivacyConcern::kLow);
    policy.k_schedule = anon::KSchedule{};
    EXPECT_TRUE(server.RegisterUser(0, policy).ok());
    EXPECT_TRUE(server.RegisterLbqid(0, CommuteLbqid()).ok());
    PopulateCompanions(&server, 6);
    for (const int64_t day : {0, 1}) {
      for (const STPoint& exact : DayRequests(day)) {
        const ProcessOutcome outcome =
            server.ProcessRequest(0, exact, 0, "data");
        trace->push_back(std::string(DispositionToString(
            outcome.disposition)));
        trace->push_back(outcome.forwarded
                             ? outcome.forwarded_request.pseudonym
                             : "-");
        if (outcome.forwarded) {
          trace->push_back(outcome.forwarded_request.context.area.ToString());
          trace->push_back(outcome.forwarded_request.context.time.ToString());
        }
      }
    }
    trace->push_back(std::to_string(server.stats().forwarded_generalized));
  };
  std::vector<std::string> base;
  std::vector<std::string> instrumented;
  run(false, &base);
  run(true, &instrumented);
  EXPECT_EQ(base, instrumented);
  ASSERT_FALSE(base.empty());
}

TEST(TsObsTest, StageAndDispositionNames) {
  EXPECT_EQ(DispositionToString(Disposition::kForwardedDefault),
            "forwarded-default");
  EXPECT_EQ(DispositionToString(Disposition::kForwardedGeneralized),
            "forwarded-generalized");
  EXPECT_EQ(DispositionToString(Disposition::kSuppressedMixZone),
            "suppressed-mixzone");
  EXPECT_EQ(DispositionToString(Disposition::kUnlinked), "unlinked");
  EXPECT_EQ(DispositionToString(Disposition::kAtRisk), "at-risk");

  EXPECT_EQ(StageToString(Stage::kLbqidMatch), "lbqid_match");
  EXPECT_EQ(StageToString(Stage::kGeneralize), "generalize");
  EXPECT_EQ(StageToString(Stage::kHkaEval), "hka_eval");
  EXPECT_EQ(StageToString(Stage::kRandomize), "randomize");
  EXPECT_EQ(StageToString(Stage::kUnlink), "unlink");
  EXPECT_EQ(StageToString(Stage::kForward), "forward");
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
