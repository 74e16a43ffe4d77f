// Shared helpers of the session benchmark: the clock, order statistics, the
// process's peak RSS, and the metric list printed as the run's result.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace mweaver::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// \brief Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when
/// empty. Takes a copy so callers keep their sample order.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// \brief Peak resident set size of this process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// \brief One named metric of the run's result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Ordered metric list; rendered as the `metrics` object of the
/// final JSON line.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.9g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// \brief Heap allocations (global operator new calls) so far in this
/// process, all threads.
uint64_t HeapAllocations();

/// \brief Prints the run's result: the last line of standard output.
inline void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                        const MetricList& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace mweaver::perfbench

#endif  // PERFBENCH_COMMON_H_
