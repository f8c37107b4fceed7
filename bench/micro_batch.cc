// Throughput of TrustedServer::ProcessBatch vs the per-request path on a
// co-located window: many LBQID commuters request from the SAME kiosk
// point at the SAME tick while a dense background crowd makes every
// k-nearest-users index query expensive.  The batch path pays that query
// once (serve-phase prewarm + the k+1 derive rule, DESIGN.md 13); the
// per-request path re-queries per request because each serve appends the
// requester's own sample and bumps the index epoch.  Writes
// BENCH_batch.json with both rates, the speedup, and the generalizer
// cache counters; exits non-zero if the speedup is below 2x (the batch
// engine's acceptance floor) so the CI bench gate catches regressions.
//
// One 384-request window runs in a few milliseconds, so a single timing
// is at the mercy of one scheduler hiccup.  Each path is therefore timed
// on kTwins fresh twins (every fixture built outside the timer) and the
// median rate is reported.
//
// Like micro_concurrent this is a plain wall-clock binary with its own
// main (two server twins replaying the same window do not fit the
// google-benchmark fixture model).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/sim/population.h"
#include "src/tgran/calendar.h"
#include "src/ts/trusted_server.h"

using namespace histkanon;  // NOLINT: harness brevity.

namespace {

// Fresh twins timed per path; the reported rate is their median.
constexpr size_t kTwins = 9;

struct FixtureOptions {
  size_t num_requesters = 384;
  size_t num_background = 900;
  size_t background_fixes = 4;
};

constexpr geo::Point kKiosk{4000.0, 4000.0};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ts::TrustedServerOptions ServerOptions(obs::Registry* registry) {
  ts::TrustedServerOptions options;
  options.per_request_randomization = true;
  options.registry = registry;
  return options;
}

// Identical twin setup: the kiosk commuters (ids [0, num_requesters))
// carry the Example-2 LBQID anchored at the kiosk and have one morning
// fix near it; the background crowd (ids above) clusters within a few
// grid cells of the kiosk so NearestPerUser scans thousands of samples.
void BuildFixture(const FixtureOptions& fixture, ts::TrustedServer* server) {
  (void)server->RegisterService(anon::service_presets::LocalizedNews(0)).ok();
  common::Rng rng(2005);
  const tgran::GranularityRegistry granularities =
      tgran::GranularityRegistry::WithDefaults();
  const sim::PopulationOptions lbqid_options;

  for (size_t r = 0; r < fixture.num_requesters; ++r) {
    const mod::UserId user = static_cast<mod::UserId>(r);
    (void)server
        ->RegisterUser(user, ts::PrivacyPolicy::FromConcern(
                                 ts::PrivacyConcern::kMedium))
        .ok();
    sim::CommuterInfo info;
    info.user = user;
    info.home = kKiosk;
    info.office = {kKiosk.x + 1500.0, kKiosk.y + 900.0};
    auto lbqid = sim::MakeCommuteLbqid(info, lbqid_options, granularities);
    if (lbqid.ok()) (void)server->RegisterLbqid(user, *lbqid).ok();
    const geo::Point near_home = {kKiosk.x + rng.Uniform(-30.0, 30.0),
                                  kKiosk.y + rng.Uniform(-30.0, 30.0)};
    server->OnLocationUpdate(
        user, {near_home, tgran::At(0, 8, 0) + rng.UniformInt(0, 299)});
  }

  for (size_t b = 0; b < fixture.num_background; ++b) {
    const mod::UserId user =
        static_cast<mod::UserId>(fixture.num_requesters + b);
    (void)server
        ->RegisterUser(user, ts::PrivacyPolicy::FromConcern(
                                 ts::PrivacyConcern::kMedium))
        .ok();
    const geo::Point base = {kKiosk.x + rng.Uniform(-220.0, 220.0),
                             kKiosk.y + rng.Uniform(-220.0, 220.0)};
    for (size_t s = 0; s < fixture.background_fixes; ++s) {
      const geo::Point at = {base.x + rng.Uniform(-15.0, 15.0),
                             base.y + rng.Uniform(-15.0, 15.0)};
      server->OnLocationUpdate(
          user, {at, tgran::At(0, 7, 0) + static_cast<geo::Instant>(s) * 600 +
                         rng.UniformInt(0, 59)});
    }
  }
}

size_t CountGeneralized(const std::vector<ts::ProcessOutcome>& outcomes) {
  size_t generalized = 0;
  for (const ts::ProcessOutcome& outcome : outcomes) {
    if (outcome.disposition == ts::Disposition::kForwardedGeneralized ||
        outcome.disposition == ts::Disposition::kAtRisk) {
      ++generalized;
    }
  }
  return generalized;
}

uint64_t CounterValue(obs::Registry* registry, const std::string& name) {
  return registry->GetCounter(name)->value();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

int main(int argc, char** argv) {
  FixtureOptions fixture;
  if (argc > 1) fixture.num_requesters = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) fixture.num_background = std::strtoul(argv[2], nullptr, 10);

  // Every commuter asks from the same kiosk point at the same tick: the
  // co-located window the anchored cache is built for.
  const geo::STPoint kiosk_request{kKiosk, tgran::At(0, 8, 30)};

  std::printf("micro_batch: co-located window, %zu requesters, %zu "
              "background users\n\n",
              fixture.num_requesters, fixture.num_background);
  std::printf("median of %zu twins per path\n", kTwins);
  std::printf("%-12s %10s %12s %12s\n", "path", "seconds", "requests/s",
              "generalized");

  // Per-request baseline: the natural serve loop.  Each ProcessRequest
  // appends the requester's sample first, so the shared nearest-users
  // entry can never stay valid across requests — this is the honest cost
  // of the unbatched path, not a pessimized strawman.
  std::vector<double> serial_rates;
  size_t serial_generalized = 0;
  for (size_t twin = 0; twin < kTwins; ++twin) {
    obs::Registry registry;
    ts::TrustedServer server(ServerOptions(&registry));
    BuildFixture(fixture, &server);
    std::vector<ts::ProcessOutcome> outcomes;
    outcomes.reserve(fixture.num_requesters);
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < fixture.num_requesters; ++r) {
      outcomes.push_back(server.ProcessRequest(static_cast<mod::UserId>(r),
                                               kiosk_request, 0, "q"));
    }
    const double seconds = SecondsSince(start);
    serial_rates.push_back(static_cast<double>(fixture.num_requesters) /
                           seconds);
    serial_generalized = CountGeneralized(outcomes);
  }
  const double serial_rps = Median(serial_rates);
  std::printf("%-12s %10.4f %12.0f %12zu\n", "per-request",
              static_cast<double>(fixture.num_requesters) / serial_rps,
              serial_rps, serial_generalized);

  // Batched path on identical twins: one ProcessBatch window each.
  std::vector<ts::BatchRequest> window;
  window.reserve(fixture.num_requesters);
  for (size_t r = 0; r < fixture.num_requesters; ++r) {
    window.push_back(ts::BatchRequest{static_cast<mod::UserId>(r),
                                      kiosk_request, 0, "q"});
  }
  std::vector<double> batch_rates;
  size_t batch_generalized = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  for (size_t twin = 0; twin < kTwins; ++twin) {
    obs::Registry registry;
    ts::TrustedServer server(ServerOptions(&registry));
    BuildFixture(fixture, &server);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ts::ProcessOutcome> outcomes =
        server.ProcessBatch(window);
    const double seconds = SecondsSince(start);
    batch_rates.push_back(static_cast<double>(fixture.num_requesters) /
                          seconds);
    // Every twin serves the same window, so the counts are per window.
    batch_generalized = CountGeneralized(outcomes);
    cache_hits = CounterValue(&registry, "anon_cache_hits_total");
    cache_misses = CounterValue(&registry, "anon_cache_misses_total");
    cache_invalidations =
        CounterValue(&registry, "anon_cache_invalidations_total");
  }
  const double batch_rps = Median(batch_rates);
  std::printf("%-12s %10.4f %12.0f %12zu\n", "batch",
              static_cast<double>(fixture.num_requesters) / batch_rps,
              batch_rps, batch_generalized);

  const double speedup = serial_rps > 0.0 ? batch_rps / serial_rps : 0.0;
  const bool pipeline_exercised =
      serial_generalized > 0 && batch_generalized > 0 && cache_hits > 0;
  std::printf("\nbatch speedup vs per-request: %.2fx; cache "
              "hits/misses/invalidations: %llu/%llu/%llu\n",
              speedup, static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_misses),
              static_cast<unsigned long long>(cache_invalidations));

  obs::JsonObject report;
  report.SetString("bench", "micro_batch");
  report.SetString("workload", "co-located kiosk window");
  report.SetUint("requesters", fixture.num_requesters);
  report.SetUint("background_users", fixture.num_background);
  report.SetUint("twins_per_path", kTwins);
  report.SetNumber("per_request_rps", serial_rps);
  report.SetNumber("batch_rps", batch_rps);
  report.SetNumber("batch_speedup", speedup);
  report.SetUint("per_request_generalized", serial_generalized);
  report.SetUint("batch_generalized", batch_generalized);
  report.SetUint("cache_hits", cache_hits);
  report.SetUint("cache_misses", cache_misses);
  report.SetUint("cache_invalidations", cache_invalidations);
  report.SetBool("pipeline_exercised", pipeline_exercised);

  std::ofstream out("BENCH_batch.json", std::ios::trunc);
  out << report.ToString() << "\n";
  const bool json_ok = out.good();
  out.close();
  std::printf("wrote BENCH_batch.json (%s)\n", json_ok ? "ok" : "FAILED");

  if (!pipeline_exercised) {
    std::printf("FAIL: fixture did not exercise the generalization "
                "pipeline / cache\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::printf("FAIL: batch speedup %.2fx below the 2x acceptance floor\n",
                speedup);
    return 1;
  }
  return 0;
}
