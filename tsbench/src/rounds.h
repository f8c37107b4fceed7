// The round structure every workload shares, and the end-to-end metrics
// derived from it.
//
// A run is one warm-up round followed by measured rounds of identical work
// (each on a freshly built server), until `--seconds` of measured wall
// time have passed; at least kMinRounds are measured.  Every per-round
// metric (rates, latency percentiles, recover_s) is reported at its best
// measured round: the highest rate, the lowest time.  The rounds do the
// same work, and the shared host only ever slows a round down (in its
// slow phases, which last seconds to minutes, identical rounds took up to
// twice as long), so the best round is the steadiest estimate of the
// program's own speed.  In the traced pass the measured rounds alternate
// untraced / traced, which gives obs.trace_overhead from one process.

#ifndef TSBENCH_SRC_ROUNDS_H_
#define TSBENCH_SRC_ROUNDS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "bench.h"

namespace tsbench {

inline constexpr size_t kMinRounds = 4;

struct RoundPlan {
  size_t index = 0;
  bool warmup = false;
  bool traced = false;
};

/// Calls `round` for the warm-up round, then for measured rounds until
/// `config.seconds` of wall time have passed since the first measured
/// round began.
void RunRounds(const RunConfig& config,
               const std::function<void(const RoundPlan&)>& round);

/// \brief The end-to-end measurements of a run.
struct EndToEnd {
  /// Process start to the start of the warm-up round's timed phase.
  double setup_s = 0.0;
  /// Per measured untraced round.
  std::vector<double> events_per_s;
  std::vector<double> requests_per_s;
  /// Per measured untraced round: its latency percentiles, microseconds.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  /// Per measured untraced round: rebuilding that round's server.
  std::vector<double> recover_s;
  /// Latency samples over all measured untraced rounds, and the smallest
  /// tail percentile a round could support (see AddLatencies).
  size_t latency_samples = 0;
  double tail_percentile = 0.99;
  double server_rss_mb = 0.0;
  /// Traced rounds' events_per_s (trace pass only).
  std::vector<double> traced_events_per_s;
};

/// Records one measured round's latency samples as its p50 and tail
/// percentile.
void AddLatencies(std::vector<double> latencies_us, EndToEnd* e2e);

/// Adds the seven end-to-end metrics and prints a summary to stderr.
void EmitEndToEnd(const EndToEnd& e2e, RunResult* result);

/// obs.trace_overhead: best traced events/s over best untraced.
double TraceOverhead(const EndToEnd& e2e);

}  // namespace tsbench

#endif  // TSBENCH_SRC_ROUNDS_H_
