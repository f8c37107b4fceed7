// tsbench: the end-to-end Trusted Server benchmark (see README.md).
//
//   tsbench --workload commuter-serial|hotspot-batch|uniform-wire
//           --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints check failures and a summary to stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when every output check passed, 1 otherwise, 2 on bad usage.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "stats.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tsbench --workload commuter-serial|hotspot-batch|"
               "uniform-wire --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tsbench::RunConfig config;
  config.process_start = tsbench::NowSeconds();
  // Freed memory stays in this process's heap: rounds and recoveries after
  // the first reuse pages already faulted in, instead of paying page
  // faults again at a cost that follows the host's load (it made
  // recover_s spread 30-40% across runs).  setup_s and server_rss_mb
  // still measure the first, cold server.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0) return Usage();
  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  if (error) {
    std::fprintf(stderr, "tsbench: cannot create %s\n", config.out_dir.c_str());
    return 2;
  }

  tsbench::RunResult result;
  if (config.workload == "commuter-serial") {
    result = tsbench::RunCommuterSerial(config);
  } else if (config.workload == "hotspot-batch") {
    result = tsbench::RunHotspotBatch(config);
  } else if (config.workload == "uniform-wire") {
    result = tsbench::RunUniformWire(config);
  } else {
    return Usage();
  }

  for (const tsbench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + metric.name + " is not a finite number");
    }
  }
  std::fprintf(stderr, "tsbench: peak resident memory %.0f MB\n",
               tsbench::PeakResidentMb());
  for (const std::string& message : result.errors) {
    std::fprintf(stderr, "tsbench: CHECK FAILED: %s\n", message.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const tsbench::Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
