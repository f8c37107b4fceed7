// Small numeric helpers: clocks, order statistics, resident memory.

#ifndef TSBENCH_SRC_STATS_H_
#define TSBENCH_SRC_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tsbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The smallest and the largest of `values` (0 when empty).
double Lowest(const std::vector<double>& values);
double Highest(const std::vector<double>& values);

/// The q-quantile of `values` by nearest rank (0 when empty).
double Quantile(std::vector<double> values, double q);

/// \brief A tail percentile that has at least ten samples beyond it: p99
/// when there are 1000 samples or more, else the highest percentile the
/// sample supports.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
Tail TailPercentile(std::vector<double> values, double wanted = 0.99);

/// Resident set size of this process, MB (from /proc/self/statm).
double ResidentMb();

/// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* bytes);

/// Peak resident set size of this process, MB (VmHWM).
double PeakResidentMb();

}  // namespace tsbench

#endif  // TSBENCH_SRC_STATS_H_
