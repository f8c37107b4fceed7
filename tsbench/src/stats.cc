#include "stats.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tsbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Lowest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Highest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail TailPercentile(std::vector<double> values, double wanted) {
  Tail tail;
  const double n = static_cast<double>(values.size());
  if (n == 0) return tail;
  // At least ten samples strictly beyond the percentile.
  const double supported = std::max(0.5, 1.0 - 10.0 / n);
  tail.percentile = std::min(wanted, supported);
  tail.value = Quantile(std::move(values), tail.percentile);
  return tail;
}

double ResidentMb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  long size = 0;
  long resident = 0;
  const int read = std::fscanf(file, "%ld %ld", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

double PeakResidentMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(file);
  return kb / 1024.0;
}


}  // namespace tsbench
