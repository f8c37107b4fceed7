// The traced pass's per-layer metrics.  Every workload reports the same
// set (a seam a workload never crosses reads as a zero count or share);
// README.md maps each one to the end-to-end metric and workload it should
// move.  Busy and self times are reported as a share (%) of the traced
// rounds' timed wall time, so layers compare across workloads and add up
// to the end-to-end budget.

#ifndef TSBENCH_SRC_REPORT_H_
#define TSBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "src/obs/metrics.h"
#include "spans.h"

namespace tsbench {

/// \brief What one traced round measured.
struct TracedRound {
  double wall_s = 0.0;
  Totals spans{};
  /// The program's own registry: stage histogram sums/counts, counters.
  std::map<std::string, double> histogram_sums;
  std::map<std::string, uint64_t> histogram_counts;
  std::map<std::string, uint64_t> counters;
  // uniform-wire only.
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t windows = 0;
  uint64_t window_requests = 0;
  uint64_t open_loop_sends = 0;
  uint64_t open_loop_late_sends = 0;
  /// Self time per obs::CausalTracer span name, summed over threads.
  std::map<std::string, int64_t> causal_self_ns;
  std::map<std::string, uint64_t> causal_calls;

  /// Copies the registry's histograms and counters.
  void ReadRegistry(const histkanon::obs::Registry& registry);
};

class LayerReport {
 public:
  void AddRound(const TracedRound& round);
  /// Checkpoints and recoveries outside the rounds (the final ones).
  void AddCheckpoint(int64_t busy_ns, uint64_t bytes);
  void AddRecovery(int64_t busy_ns, uint64_t bytes, uint64_t replayed_events);
  void SetTraceOverhead(double ratio) { trace_overhead_ = ratio; }
  void Emit(RunResult* result) const;

 private:
  size_t rounds_ = 0;
  double wall_s_ = 0.0;
  TracedRound sum_;
  uint64_t checkpoints_ = 0;
  int64_t checkpoint_ns_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  uint64_t recoveries_ = 0;
  int64_t recover_ns_ = 0;
  uint64_t recover_bytes_ = 0;
  uint64_t recover_events_ = 0;
  double trace_overhead_ = 0.0;
};

}  // namespace tsbench

#endif  // TSBENCH_SRC_REPORT_H_
