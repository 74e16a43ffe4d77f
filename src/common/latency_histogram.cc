#include "common/latency_histogram.h"

#include <algorithm>

namespace mweaver {

void LatencyHistogram::Record(double ms) {
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  ++counts_[BucketOf(ms)];
  ++count_;
  sum_ms_ += ms;
  max_ms_ = std::max(max_ms_, ms);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  for (size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
  max_ms_ = std::max(max_ms_, other.max_ms_);
}

void LatencyHistogram::Subtract(const LatencyHistogram& earlier) {
  if (earlier.counts_.empty() || counts_.empty()) return;
  count_ = 0;
  size_t top = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    counts_[i] -= std::min(counts_[i], earlier.counts_[i]);
    count_ += counts_[i];
    if (counts_[i] != 0) top = i;
  }
  if (count_ == 0) {
    *this = LatencyHistogram();
    return;
  }
  sum_ms_ -= earlier.sum_ms_;
  // The last bucket also holds everything clamped above 60 s: no edge.
  if (top + 1 < kBucketCount) {
    max_ms_ = std::min(
        max_ms_, static_cast<double>(LowerTicks(top) + WidthTicks(top)) /
                     kTicksPerMs);
  }
}

double LatencyHistogram::PercentileMs(double p) const {
  if (count_ == 0) return 0.0;
  if (!(p > 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  const auto rank =
      static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += counts_[i];
    if (seen > rank) {
      const double mid =
          (static_cast<double>(LowerTicks(i)) + 0.5 * WidthTicks(i)) /
          kTicksPerMs;
      return std::min(mid, max_ms_);
    }
  }
  return max_ms_;
}

void AtomicLatencyHistogram::Record(double ms) {
  counts_[LatencyHistogram::BucketOf(ms)].fetch_add(1,
                                                    std::memory_order_relaxed);
  sum_ms_.fetch_add(ms, std::memory_order_relaxed);
  double seen = max_ms_.load(std::memory_order_relaxed);
  while (ms > seen && !max_ms_.compare_exchange_weak(
                          seen, ms, std::memory_order_relaxed)) {
  }
}

LatencyHistogram AtomicLatencyHistogram::Snapshot() const {
  LatencyHistogram out;
  std::vector<uint64_t> counts(LatencyHistogram::kBucketCount);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
    out.count_ += counts[i];
  }
  if (out.count_ == 0) return out;
  out.counts_ = std::move(counts);
  out.sum_ms_ = sum_ms_.load(std::memory_order_relaxed);
  out.max_ms_ = max_ms_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mweaver
