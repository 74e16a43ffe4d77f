// Probe counters for the approximate-keyword lookup layer: how many
// per-attribute probes ran, how many were answered by the probe memo, how
// many dictionary tokens the n-gram / deletion-neighborhood indexes had to
// examine, and how often a probe fell back to a full dictionary scan.
//
// Two shapes, one set of fields:
//  * ProbeStats — a plain copyable tally. One lives on the stack of each
//    lookup call; snapshots of the atomic form embed into
//    core::ExecutionTrace and service::MetricsSnapshot.
//  * ProbeCounters — the atomic accumulator. One lives inside each
//    core::ExecutionContext (one search's tally) and one inside each
//    service::TenantMetrics record, which concurrent service workers
//    share.
#ifndef MWEAVER_TEXT_LOOKUP_STATS_H_
#define MWEAVER_TEXT_LOOKUP_STATS_H_

#include <atomic>
#include <cstdint>

namespace mweaver::text {

/// \brief Plain tally of one (or many summed) approximate-lookup probes.
struct ProbeStats {
  /// Per-(attribute, sample) probes answered, memo hits included.
  uint64_t probes = 0;
  /// Probes answered straight from the probe memo.
  uint64_t memo_hits = 0;
  /// Probes that had to run a candidate lookup + verification pass.
  uint64_t memo_misses = 0;
  /// Dictionary tokens the candidate indexes examined (n-gram candidates
  /// verified, deletion-neighborhood candidates verified, or tokens touched
  /// by a scan fallback). The linear-scan baseline would examine
  /// |dictionary| per query token.
  uint64_t candidates_examined = 0;
  /// Query tokens that fell back to a full dictionary scan (edit bound
  /// beyond what the deletion index covers).
  uint64_t scan_fallbacks = 0;
  /// Probes whose sample tokenized to nothing (punctuation-only): the
  /// index returns every indexed row and the memo must not cache it.
  uint64_t all_rows_fallbacks = 0;
  /// Posting-list merge kernels (text/posting_list.h, KernelStats):
  /// two-pointer merges, one per intersection of two non-empty lists and
  /// one per pairwise merge of a union cascade.
  uint64_t kernel_array_array = 0;
  /// Lists scattered into a union's bitmap, one per list.
  uint64_t kernel_array_bitmap = 0;
  /// Always 0 since posting lists became flat vectors: no bitmap x bitmap
  /// merge exists. Kept until perfbench's reader and the kernel baseline
  /// drop the field.
  uint64_t kernel_bitmap_bitmap = 0;
  /// Galloping intersections, plus one per union cascade merge (the name
  /// is historical; see KernelStats::scalar_fallback).
  uint64_t kernel_scalar_fallback = 0;

  void Add(const ProbeStats& other) {
    probes += other.probes;
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    candidates_examined += other.candidates_examined;
    scan_fallbacks += other.scan_fallbacks;
    all_rows_fallbacks += other.all_rows_fallbacks;
    kernel_array_array += other.kernel_array_array;
    kernel_array_bitmap += other.kernel_array_bitmap;
    kernel_bitmap_bitmap += other.kernel_bitmap_bitmap;
    kernel_scalar_fallback += other.kernel_scalar_fallback;
  }

  /// \brief Removes an `earlier` tally of the same counters (saturating
  /// at 0), leaving the interval between the two.
  void Subtract(const ProbeStats& earlier) {
    const auto sub = [](uint64_t& a, uint64_t b) { a = a > b ? a - b : 0; };
    sub(probes, earlier.probes);
    sub(memo_hits, earlier.memo_hits);
    sub(memo_misses, earlier.memo_misses);
    sub(candidates_examined, earlier.candidates_examined);
    sub(scan_fallbacks, earlier.scan_fallbacks);
    sub(all_rows_fallbacks, earlier.all_rows_fallbacks);
    sub(kernel_array_array, earlier.kernel_array_array);
    sub(kernel_array_bitmap, earlier.kernel_array_bitmap);
    sub(kernel_bitmap_bitmap, earlier.kernel_bitmap_bitmap);
    sub(kernel_scalar_fallback, earlier.kernel_scalar_fallback);
  }
};

/// \brief Thread-safe accumulator of ProbeStats.
class ProbeCounters {
 public:
  void Record(const ProbeStats& s) {
    probes_.fetch_add(s.probes, std::memory_order_relaxed);
    memo_hits_.fetch_add(s.memo_hits, std::memory_order_relaxed);
    memo_misses_.fetch_add(s.memo_misses, std::memory_order_relaxed);
    candidates_examined_.fetch_add(s.candidates_examined,
                                   std::memory_order_relaxed);
    scan_fallbacks_.fetch_add(s.scan_fallbacks, std::memory_order_relaxed);
    all_rows_fallbacks_.fetch_add(s.all_rows_fallbacks,
                                  std::memory_order_relaxed);
    kernel_array_array_.fetch_add(s.kernel_array_array,
                                  std::memory_order_relaxed);
    kernel_array_bitmap_.fetch_add(s.kernel_array_bitmap,
                                   std::memory_order_relaxed);
    kernel_bitmap_bitmap_.fetch_add(s.kernel_bitmap_bitmap,
                                    std::memory_order_relaxed);
    kernel_scalar_fallback_.fetch_add(s.kernel_scalar_fallback,
                                      std::memory_order_relaxed);
  }

  ProbeStats Snapshot() const {
    ProbeStats s;
    s.probes = probes_.load(std::memory_order_relaxed);
    s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
    s.memo_misses = memo_misses_.load(std::memory_order_relaxed);
    s.candidates_examined =
        candidates_examined_.load(std::memory_order_relaxed);
    s.scan_fallbacks = scan_fallbacks_.load(std::memory_order_relaxed);
    s.all_rows_fallbacks =
        all_rows_fallbacks_.load(std::memory_order_relaxed);
    s.kernel_array_array = kernel_array_array_.load(std::memory_order_relaxed);
    s.kernel_array_bitmap =
        kernel_array_bitmap_.load(std::memory_order_relaxed);
    s.kernel_bitmap_bitmap =
        kernel_bitmap_bitmap_.load(std::memory_order_relaxed);
    s.kernel_scalar_fallback =
        kernel_scalar_fallback_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    probes_.store(0, std::memory_order_relaxed);
    memo_hits_.store(0, std::memory_order_relaxed);
    memo_misses_.store(0, std::memory_order_relaxed);
    candidates_examined_.store(0, std::memory_order_relaxed);
    scan_fallbacks_.store(0, std::memory_order_relaxed);
    all_rows_fallbacks_.store(0, std::memory_order_relaxed);
    kernel_array_array_.store(0, std::memory_order_relaxed);
    kernel_array_bitmap_.store(0, std::memory_order_relaxed);
    kernel_bitmap_bitmap_.store(0, std::memory_order_relaxed);
    kernel_scalar_fallback_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> candidates_examined_{0};
  std::atomic<uint64_t> scan_fallbacks_{0};
  std::atomic<uint64_t> all_rows_fallbacks_{0};
  std::atomic<uint64_t> kernel_array_array_{0};
  std::atomic<uint64_t> kernel_array_bitmap_{0};
  std::atomic<uint64_t> kernel_bitmap_bitmap_{0};
  std::atomic<uint64_t> kernel_scalar_fallback_{0};
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_LOOKUP_STATS_H_
