// Property tests for LatencyHistogram, held against an exact sort of the
// same samples: percentiles within the stated relative error, exact count /
// sum / max, merge and subtract bucket by bucket, end-bucket clamping, and
// lock-free concurrent recording.
#include "common/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"

namespace mweaver {
namespace {

/// Exact percentile over an already-sorted sample: sorted[floor(p*(n-1))].
/// The rank definition the histogram reports, computed without buckets.
double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (!(p > 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  const auto idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

double ExactPercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

// Log-uniform over [1 µs, 10 s]: every power of two in between is equally
// likely, as latencies from cache hits to slow weaves are.
std::vector<double> LogUniformSamples(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> samples(n);
  for (double& ms : samples) {
    ms = std::pow(10.0, -3.0 + 7.0 * rng.UniformDouble());
  }
  return samples;
}

void ExpectWithinStatedError(const LatencyHistogram& h,
                             const std::vector<double>& samples) {
  for (const double p : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = ExactPercentile(samples, p);
    EXPECT_NEAR(h.PercentileMs(p), exact,
                exact * LatencyHistogram::kMaxRelativeError)
        << "p=" << p;
  }
}

constexpr double kPercentiles[] = {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0};

TEST(LatencyHistogramTest, OracleMatchesRankDefinition) {
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 0.5), 0.0);
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(one, 0.99), 42.0);
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileSorted(ramp, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(ramp, 0.50), 50.0);  // floor(0.5*99)=49
  EXPECT_DOUBLE_EQ(PercentileSorted(ramp, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(ramp, 1.0), 100.0);

  // The histogram uses the same rank, read at bucket resolution.
  LatencyHistogram h;
  for (double ms : ramp) h.Record(ms);
  ExpectWithinStatedError(h, ramp);
}

TEST(LatencyHistogramTest, EmptyReadsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanMs(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileMs(0.5), 0.0);
}

TEST(LatencyHistogramTest, NeverReportsAboveTheRecordedMax) {
  // 0.992 ms = 31744 ticks is the lower edge of its bucket, whose midpoint
  // (32000 ticks) lies above it: the clamp reports the value itself.
  LatencyHistogram h;
  h.Record(0.992);
  for (const double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(h.PercentileMs(p), 0.992) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, LogUniformPercentilesWithinStatedError) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<double> samples = LogUniformSamples(seed, 20000);
    LatencyHistogram h;
    for (double ms : samples) h.Record(ms);
    ExpectWithinStatedError(h, samples);
  }
}

TEST(LatencyHistogramTest, CountSumAndMaxAreExact) {
  // Far more samples than any fixed sample store would keep.
  const std::vector<double> samples = LogUniformSamples(7, 100000);
  LatencyHistogram h;
  double sum = 0.0;
  for (double ms : samples) {
    h.Record(ms);
    sum += ms;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_DOUBLE_EQ(h.sum_ms(), sum);
  EXPECT_DOUBLE_EQ(h.MeanMs(), sum / static_cast<double>(samples.size()));
  EXPECT_DOUBLE_EQ(h.max_ms(),
                   *std::max_element(samples.begin(), samples.end()));
}

TEST(LatencyHistogramTest, MergeEqualsRecordingEverySample) {
  const std::vector<double> samples = LogUniformSamples(11, 9000);
  LatencyHistogram whole;
  std::vector<LatencyHistogram> parts(3);
  for (size_t i = 0; i < samples.size(); ++i) {
    whole.Record(samples[i]);
    parts[i % parts.size()].Record(samples[i]);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& part : parts) merged.Merge(part);
  merged.Merge(LatencyHistogram());  // merging an empty one is a no-op
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.sum_ms(), whole.sum_ms(), 1e-9 * whole.sum_ms());
  EXPECT_DOUBLE_EQ(merged.max_ms(), whole.max_ms());
  for (const double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(merged.PercentileMs(p), whole.PercentileMs(p))
        << "p=" << p;
  }
}

TEST(LatencyHistogramTest, SubtractEqualsRecordingOnlyTheInterval) {
  const std::vector<double> before = LogUniformSamples(13, 5000);
  const std::vector<double> interval = LogUniformSamples(17, 3000);
  LatencyHistogram running;
  for (double ms : before) running.Record(ms);
  const LatencyHistogram earlier = running;
  LatencyHistogram only;
  double sum = 0.0;
  for (double ms : interval) {
    running.Record(ms);
    only.Record(ms);
    sum += ms;
  }

  LatencyHistogram delta = running;
  delta.Subtract(earlier);
  EXPECT_EQ(delta.count(), interval.size());
  EXPECT_NEAR(delta.sum_ms(), sum, 1e-9 * running.sum_ms());
  ExpectWithinStatedError(delta, interval);
  // The interval max is not recoverable exactly; Subtract keeps an upper
  // bound within one bucket of it.
  EXPECT_GE(delta.max_ms(), only.max_ms());
  EXPECT_LE(delta.max_ms(),
            only.max_ms() * (1.0 + 2.0 * LatencyHistogram::kMaxRelativeError));
  // Below the max, the buckets are exactly the interval's.
  for (const double p : {0.0, 0.1, 0.5, 0.9, 0.95}) {
    EXPECT_DOUBLE_EQ(delta.PercentileMs(p), only.PercentileMs(p))
        << "p=" << p;
  }

  // Subtracting everything leaves an empty histogram.
  LatencyHistogram none = running;
  none.Subtract(running);
  EXPECT_EQ(none.count(), 0u);
  EXPECT_DOUBLE_EQ(none.sum_ms(), 0.0);
  EXPECT_DOUBLE_EQ(none.PercentileMs(0.5), 0.0);
  // Subtracting an empty earlier histogram changes nothing.
  LatencyHistogram same = running;
  same.Subtract(LatencyHistogram());
  EXPECT_EQ(same.count(), running.count());
  EXPECT_DOUBLE_EQ(same.PercentileMs(0.5), running.PercentileMs(0.5));
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampIntoEndBuckets) {
  const double below[] = {0.0, 1e-7, -1.0};  // ms; -1 guards a bad clock
  const double above[] = {120000.0, 1e12};   // 2 min, and absurd
  LatencyHistogram h;
  double sum = 0.0;
  for (double ms : below) {
    h.Record(ms);
    sum += ms;
  }
  for (double ms : above) {
    h.Record(ms);
    sum += ms;
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), sum);
  EXPECT_DOUBLE_EQ(h.max_ms(), 1e12);
  EXPECT_EQ(LatencyHistogram::BucketOf(h.PercentileMs(0.0)), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(h.PercentileMs(1.0)),
            LatencyHistogram::kBucketCount - 1);

  // The range ends themselves are resolved.
  EXPECT_EQ(LatencyHistogram::BucketOf(0.001), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(60000.0),
            LatencyHistogram::kBucketCount - 1);
  EXPECT_LT(LatencyHistogram::BucketOf(59000.0),
            LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogramTest, ConcurrentRecordingCountsEverySample) {
  // Dyadic values sum exactly in any order, so the shared sum must equal
  // the single-threaded one bit for bit.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 20000;
  const auto value = [](size_t t, size_t i) {
    return 0.0078125 * static_cast<double>(1 + (i * 7 + t) % 4096);
  };
  AtomicLatencyHistogram shared;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const LatencyHistogram snap = shared.Snapshot();
      EXPECT_GE(snap.count(), last);
      last = snap.count();
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&shared, &value, t] {
      for (size_t i = 0; i < kPerThread; ++i) shared.Record(value(t, i));
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  LatencyHistogram serial;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) serial.Record(value(t, i));
  }
  const LatencyHistogram snap = shared.Snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum_ms(), serial.sum_ms());
  EXPECT_DOUBLE_EQ(snap.max_ms(), serial.max_ms());
  for (const double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(snap.PercentileMs(p), serial.PercentileMs(p))
        << "p=" << p;
  }
}

}  // namespace
}  // namespace mweaver
