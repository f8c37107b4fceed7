// Shared scenario runner for the experiment harnesses (see DESIGN.md §5
// and EXPERIMENTS.md).  Each exp_* binary sweeps parameters over
// RunScenario and prints an eval::Table.

#ifndef HISTKANON_BENCH_EXP_COMMON_H_
#define HISTKANON_BENCH_EXP_COMMON_H_

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/anon/tolerance.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/eval/metrics.h"
#include "src/eval/table.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/sim/population.h"
#include "src/sim/simulator.h"
#include "src/ts/adversary.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace bench {

/// \brief Everything an experiment varies.
struct Scenario {
  sim::PopulationOptions population;
  ts::TrustedServerOptions ts_options;
  ts::PrivacyPolicy policy = ts::PrivacyPolicy::FromConcern(
      ts::PrivacyConcern::kMedium);
  /// Tolerance profile for the service commute requests go to (id 0).
  anon::ServiceProfile commute_service = anon::service_presets::LocalizedNews(0);
  /// Tolerance profile for background requests (id 1).
  anon::ServiceProfile background_service =
      anon::service_presets::LocalizedNews(1);
  int days = 14;
  uint64_t seed = 2005;
  std::string recurrence = "3.weekdays * 2.week";
  /// Optional observability for the run (not owned); forwarded into
  /// ts_options so the server, index, generalizer, and monitor all record
  /// into the same registry.
  obs::Registry* registry = nullptr;
  obs::EventSink* event_sink = nullptr;
};

/// \brief A completed run with everything the metrics need.
struct ScenarioRun {
  std::unique_ptr<sim::World> world;
  std::vector<sim::CommuterInfo> commuters;
  std::unique_ptr<ts::ServiceProvider> provider;
  std::unique_ptr<ts::TrustedServer> server;

  /// Commuters whose (per-LBQID) trace satisfies Historical k-anonymity.
  size_t HkaOkCount() const {
    size_t ok = 0;
    for (const sim::CommuterInfo& commuter : commuters) {
      if (server->EvaluateTraceHka(commuter.user, 0).satisfied) ++ok;
    }
    return ok;
  }

  /// Fraction helper.
  double HkaOkFraction() const {
    return commuters.empty()
               ? 0.0
               : static_cast<double>(HkaOkCount()) /
                     static_cast<double>(commuters.size());
  }
};

/// Runs the standard city scenario through the trusted server.
inline ScenarioRun RunScenario(const Scenario& scenario) {
  ScenarioRun run;
  common::Rng rng(scenario.seed);
  sim::Population population =
      sim::BuildPopulation(scenario.population, &rng);
  run.world = std::make_unique<sim::World>(std::move(population.world));
  run.commuters = population.commuters;

  ts::TrustedServerOptions ts_options = scenario.ts_options;
  if (scenario.registry != nullptr) ts_options.registry = scenario.registry;
  if (scenario.event_sink != nullptr) {
    ts_options.event_sink = scenario.event_sink;
  }
  run.server = std::make_unique<ts::TrustedServer>(ts_options);
  run.provider = std::make_unique<ts::ServiceProvider>(run.world.get());
  run.server->ConnectServiceProvider(run.provider.get());
  anon::ServiceProfile commute = scenario.commute_service;
  commute.id = 0;
  anon::ServiceProfile background = scenario.background_service;
  background.id = 1;
  run.server->RegisterService(commute).ok();
  run.server->RegisterService(background).ok();

  const tgran::GranularityRegistry registry =
      tgran::GranularityRegistry::WithDefaults();
  for (const sim::CommuterInfo& commuter : run.commuters) {
    run.server->RegisterUser(commuter.user, scenario.policy).ok();
    auto lbqid = sim::MakeCommuteLbqid(commuter, scenario.population,
                                       registry, scenario.recurrence);
    if (lbqid.ok()) run.server->RegisterLbqid(commuter.user, *lbqid).ok();
  }

  sim::SimulationOptions sim_options;
  sim_options.end =
      static_cast<geo::Instant>(scenario.days) * tgran::kSecondsPerDay;
  sim::Simulator simulator(std::move(population.agents), sim_options);
  simulator.Run(run.server.get());
  return run;
}

/// Writes the per-stage latency quantiles of `registry`'s
/// `ts_stage_*_seconds` / `ts_request_seconds` histograms as one JSON
/// object — the machine-readable perf trajectory
/// (`BENCH_pipeline.json`).  Returns false when the file cannot be
/// opened.
inline bool WritePipelineJson(const obs::Registry& registry,
                              const std::string& bench_name,
                              const std::string& path) {
  obs::JsonObject stages;
  for (const auto& [name, histogram] : registry.Histograms()) {
    const std::string stage_prefix = "ts_stage_";
    const std::string stage_suffix = "_seconds";
    std::string stage;
    if (name == "ts_request_seconds") {
      stage = "request";
    } else if (name.size() > stage_prefix.size() + stage_suffix.size() &&
               name.compare(0, stage_prefix.size(), stage_prefix) == 0 &&
               name.compare(name.size() - stage_suffix.size(),
                            stage_suffix.size(), stage_suffix) == 0) {
      stage = name.substr(stage_prefix.size(),
                          name.size() - stage_prefix.size() -
                              stage_suffix.size());
    } else {
      continue;
    }
    obs::JsonObject entry;
    entry.SetUint("count", histogram->count());
    entry.SetNumber("p50_us", histogram->Quantile(0.50) * 1e6);
    entry.SetNumber("p95_us", histogram->Quantile(0.95) * 1e6);
    entry.SetNumber("p99_us", histogram->Quantile(0.99) * 1e6);
    entry.SetNumber("mean_us",
                    histogram->count() == 0
                        ? 0.0
                        : histogram->sum() * 1e6 /
                              static_cast<double>(histogram->count()));
    stages.SetRaw(stage, entry.ToString());
  }
  obs::JsonObject root;
  root.SetString("bench", bench_name);
  root.SetRaw("stages", stages.ToString());
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << root.ToString() << '\n';
  return out.good();
}

/// Writes `table` as CSV next to its pretty print.  Returns false when
/// the file cannot be opened.
inline bool WriteTableCsv(const eval::Table& table,
                          const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  table.ToCsv(out);
  return out.good();
}

/// Formats a fraction as "0.93".
inline std::string Frac(double value) {
  return common::Format("%.2f", value);
}

/// Formats a count.
inline std::string Count(size_t value) {
  return common::Format("%zu", value);
}

}  // namespace bench
}  // namespace histkanon

#endif  // HISTKANON_BENCH_EXP_COMMON_H_
