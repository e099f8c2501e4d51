// Process CPU readings and order statistics shared by the workloads.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "perfbench/bench.h"

namespace seemore {
namespace perfbench {
namespace {

CpuTimes ReadUsage(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

}  // namespace

CpuTimes SelfCpu() { return ReadUsage(RUSAGE_SELF); }
CpuTimes ChildCpu() { return ReadUsage(RUSAGE_CHILDREN); }

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Best(const std::vector<double>& values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

}  // namespace perfbench
}  // namespace seemore
