// Shared types of the end-to-end Trusted Server benchmark: run
// configuration, the metric/result record every workload fills, and the
// three workload entry points.

#ifndef TSBENCH_SRC_BENCH_H_
#define TSBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen.h"

namespace tsbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase (whole rounds until it has elapsed).
  double seconds = 10.0;
  /// Traced pass: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where journals, cold files and the trace file go (inside the
  /// checkout the benchmark runs from).
  std::string out_dir = "tsbench-out";
  /// steady_clock seconds at process start (setup_s is measured from it).
  double process_start = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable check failures (printed to stderr).
  std::vector<std::string> errors;

  void Fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

RunResult RunCommuterSerial(const RunConfig& config);
RunResult RunHotspotBatch(const RunConfig& config);
RunResult RunUniformWire(const RunConfig& config);

}  // namespace tsbench

#endif  // TSBENCH_SRC_BENCH_H_
