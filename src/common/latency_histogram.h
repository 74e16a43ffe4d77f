// LatencyHistogram: the one latency-percentile implementation. Buckets are
// log-linear (HDR-style) over ~1 µs .. 60 s: each power of two is split
// into 32 equal sub-buckets, so finding a value's bucket is one bit width
// and one shift, and a reported percentile lies within kMaxRelativeError of
// the exact order statistic. Count, sum and max are exact.
//
// Two shapes over one bucket scheme (like text::ProbeStats and
// text::ProbeCounters):
//  * LatencyHistogram — a plain copyable value with one writer: the
//    workload harness's per-actor cells and every metrics snapshot.
//    Histograms merge and subtract bucket by bucket.
//  * AtomicLatencyHistogram — the lock-free recorder that concurrent
//    service workers share; Snapshot() copies it into a LatencyHistogram.
#ifndef MWEAVER_COMMON_LATENCY_HISTOGRAM_H_
#define MWEAVER_COMMON_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mweaver {

class LatencyHistogram {
 public:
  /// Values are bucketed in ticks of 1/32 µs: 1 µs (32 ticks) is the first
  /// value whose power of two gets the full 32-way split.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  static constexpr double kTicksPerMs = 1000.0 * kSubBuckets;
  static constexpr uint64_t kMinTicks = kSubBuckets;                 // 1 µs
  static constexpr uint64_t kMaxTicks = 60'000 * 1000 * kSubBuckets;  // 60 s
  /// Bound on |reported - exact| / exact for a percentile whose exact value
  /// lies in [1 µs, 60 s]: half a bucket, reported at its midpoint.
  static constexpr double kMaxRelativeError = 0.5 / kSubBuckets;

  /// \brief Bucket index of `ms`. Values below 1 µs (and NaN) land in the
  /// first bucket, values above 60 s in the last.
  static constexpr size_t BucketOf(double ms) {
    const double scaled = ms * kTicksPerMs;
    uint64_t ticks = kMaxTicks;
    if (!(scaled > kMinTicks)) {
      ticks = kMinTicks;
    } else if (scaled < kMaxTicks) {
      ticks = static_cast<uint64_t>(scaled);
    }
    const int shift = std::bit_width(ticks) - 1 - kSubBucketBits;
    return static_cast<size_t>(shift) * kSubBuckets + (ticks >> shift) -
           kSubBuckets;
  }
  // One past the bucket of kMaxTicks (checked below the class).
  static constexpr int kMaxShift =
      std::bit_width(kMaxTicks) - 1 - kSubBucketBits;
  static constexpr size_t kBucketCount =
      kMaxShift * kSubBuckets + (kMaxTicks >> kMaxShift) - kSubBuckets + 1;

  void Record(double ms);
  void Merge(const LatencyHistogram& other);
  /// \brief Removes an earlier snapshot of the same (monotonic) histogram,
  /// leaving the interval between the two. Buckets, count and sum subtract
  /// exactly. The interval's max is not recoverable from two snapshots; it
  /// becomes an upper bound: this max, capped at the upper edge of the
  /// highest bucket the interval occupies.
  void Subtract(const LatencyHistogram& earlier);

  uint64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  double max_ms() const { return max_ms_; }
  double MeanMs() const {
    return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_);
  }

  /// \brief The value of rank floor(p * (count - 1)) in ascending order
  /// (p clamped to [0, 1]), read as its bucket's midpoint and clamped to
  /// the recorded max; 0 when empty.
  double PercentileMs(double p) const;

 private:
  friend class AtomicLatencyHistogram;

  // Bucket i spans [LowerTicks(i), LowerTicks(i) + WidthTicks(i)).
  static constexpr uint64_t WidthTicks(size_t i) {
    return uint64_t{1} << (i / kSubBuckets);
  }
  static constexpr uint64_t LowerTicks(size_t i) {
    return (kSubBuckets + i % kSubBuckets) * WidthTicks(i);
  }

  // kBucketCount entries; empty iff count_ == 0.
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

static_assert(LatencyHistogram::BucketOf(1e300) + 1 ==
              LatencyHistogram::kBucketCount);

/// \brief Thread-safe recorder over LatencyHistogram's buckets: Record is a
/// relaxed bucket increment plus the sum and max updates.
class AtomicLatencyHistogram {
 public:
  void Record(double ms);
  /// \brief A copy whose count is the sum of the buckets read, so count and
  /// buckets agree even while workers keep recording.
  LatencyHistogram Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, LatencyHistogram::kBucketCount> counts_{};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

}  // namespace mweaver

#endif  // MWEAVER_COMMON_LATENCY_HISTOGRAM_H_
