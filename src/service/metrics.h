// ServiceMetrics: lock-free counters the mapping service updates on every
// request, snapshotable for benches and monitoring. All mutators are safe
// to call concurrently from any worker thread.
#ifndef MWEAVER_SERVICE_METRICS_H_
#define MWEAVER_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_context.h"

namespace mweaver::service {

/// \brief How a request left the service.
enum class RequestOutcome {
  /// Processed to completion (the session may still report NoMapping —
  /// that is a mapping-design outcome, not a service failure).
  kOk = 0,
  /// Rejected at admission: the bounded queue was full (backpressure).
  kOverloaded,
  /// Processed, but the deadline (or a tuple-path cap) cut the search
  /// short; the result is partial.
  kTruncated,
  /// Processed to completion, but only after the service retried a
  /// transient (Unavailable) failure. The answer is complete and correct;
  /// the flag tells operators the backend is flaking.
  kDegraded,
  /// The session rejected the request (bad column, unknown session, ...).
  kFailed,
};

const char* RequestOutcomeName(RequestOutcome outcome);

/// \brief A point-in-time copy of the service counters.
struct MetricsSnapshot {
  uint64_t requests_ok = 0;
  uint64_t requests_overloaded = 0;
  uint64_t requests_truncated = 0;
  uint64_t requests_degraded = 0;
  uint64_t requests_failed = 0;

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// Transient search failures the service absorbed by retrying. One
  /// retried-then-successful request bumps this once and lands in
  /// requests_degraded (or requests_truncated if the retry was cut short).
  uint64_t search_retries = 0;
  /// The same for update batches: transient Apply failures retried once.
  uint64_t update_retries = 0;

  /// Streaming update batches that installed a new minor epoch / that
  /// failed (injected faults, superseded bases, validation errors).
  /// Updates also land in the requests_* outcome counters above — these
  /// tell update traffic apart from search traffic.
  uint64_t updates_ok = 0;
  uint64_t updates_failed = 0;
  /// Rows applied by successful update batches.
  uint64_t update_rows_inserted = 0;
  uint64_t update_rows_deleted = 0;

  /// Deepest the request queue ever got (admission-time depth).
  uint64_t queue_high_water = 0;

  /// latency_buckets[i] counts completed requests with latency <=
  /// ServiceMetrics::BucketUpperMs(i) (the last bucket is unbounded).
  /// Queue wait is included; overloaded requests are not recorded.
  std::vector<uint64_t> latency_buckets;

  /// stage_latency_buckets[s][i]: same bucket scheme, per TPW pipeline
  /// stage (s indexes core::SearchStage). The search stages are recorded
  /// per uncached search from its ExecutionTrace; the kPrune stage per
  /// interactive pruning pass (RecordPruneTrace). Cache hits contribute
  /// nothing.
  std::vector<std::vector<uint64_t>> stage_latency_buckets;

  /// Approximate-keyword-lookup counters summed over every recorded search
  /// trace: per-attribute probes, probe-memo hits/misses, candidate tokens
  /// the text indexes examined, and scan / all-rows fallbacks.
  uint64_t text_probes = 0;
  uint64_t text_memo_hits = 0;
  uint64_t text_memo_misses = 0;
  uint64_t text_candidates_examined = 0;
  uint64_t text_scan_fallbacks = 0;
  uint64_t text_all_rows_fallbacks = 0;

  /// Memo hits / probes; 0 when no probe ran.
  double TextMemoHitRate() const;

  uint64_t TotalRequests() const {
    return requests_ok + requests_overloaded + requests_truncated +
           requests_degraded + requests_failed;
  }
  uint64_t CompletedRequests() const {
    return requests_ok + requests_truncated + requests_degraded +
           requests_failed;
  }
  /// Hits / (hits + misses); 0 when the cache was never consulted.
  double CacheHitRate() const;
  /// Histogram-estimated latency percentile in ms (p in [0,1]); returns
  /// the bucket upper bound containing the p-quantile, 0 with no data.
  double ApproxLatencyPercentileMs(double p) const;
  /// Same, over one pipeline stage's histogram.
  double ApproxStageLatencyPercentileMs(core::SearchStage stage,
                                        double p) const;

  std::string ToString() const;

  /// \brief The snapshot as one JSON object (counters, cache/text rates,
  /// approximate latency percentiles, per-stage percentiles). This is
  /// what the workload runner embeds in BENCH_*.json and
  /// examples/mapping_server prints — external tooling reads metrics
  /// without friending service internals. Schema in DESIGN.md §11.
  std::string ToJson() const;

  /// \brief Counter-wise difference against an `earlier` snapshot of the
  /// same service: monotonic counters subtract (saturating at 0 in case
  /// histograms were reset in between); histogram buckets and the queue
  /// high-water keep THIS snapshot's values — with
  /// ServiceMetrics::ResetHistograms() at interval starts they already
  /// describe just the interval.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;
};

/// \brief The live counters. One instance per MappingService.
class ServiceMetrics {
 public:
  /// 16 power-of-two buckets: <=0.25ms, <=0.5ms, ... <=4096ms, +inf.
  static constexpr size_t kNumBuckets = 16;
  static double BucketUpperMs(size_t i);

  void RecordRequest(RequestOutcome outcome, double latency_ms);
  void RecordQueueDepth(size_t depth);
  void RecordCacheLookup(bool hit);
  /// \brief Counts one absorbed transient search failure (retry issued).
  void RecordSearchRetry();
  /// \brief Counts one transient update-batch failure retried.
  void RecordUpdateRetry();
  /// \brief Counts one streaming update batch; `rows_inserted` /
  /// `rows_deleted` are only accumulated when `ok`.
  void RecordUpdate(bool ok, uint64_t rows_inserted, uint64_t rows_deleted);
  /// \brief Folds one search's per-stage trace into the per-stage latency
  /// histograms. The kPrune stage is skipped — sample
  /// search never runs it, and folding its empty span would fill the prune
  /// histogram with zeroes.
  void RecordSearchTrace(const core::ExecutionTrace& trace);

  /// \brief Folds one interactive pruning pass's trace: the kPrune latency
  /// bucket and the pass's text-probe counters. The
  /// search-stage histograms are left untouched (a pruning context carries
  /// no search spans).
  void RecordPruneTrace(const core::ExecutionTrace& trace);

  MetricsSnapshot Snapshot() const;

  /// \brief Snapshot().ToJson() — the export hook for benches/monitoring.
  std::string SnapshotJson() const;

  /// \brief Zeroes the request/stage latency histograms, starting a fresh
  /// measurement interval (the workload runner calls this at phase
  /// boundaries). Scalar counters stay monotonic — interval values come
  /// from MetricsSnapshot::Delta().
  /// Concurrent recording during a reset is safe but the affected events
  /// may land in either interval.
  void ResetHistograms();

 private:
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> overloaded_{0};
  std::atomic<uint64_t> truncated_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> search_retries_{0};
  std::atomic<uint64_t> update_retries_{0};
  std::atomic<uint64_t> updates_ok_{0};
  std::atomic<uint64_t> updates_failed_{0};
  std::atomic<uint64_t> update_rows_inserted_{0};
  std::atomic<uint64_t> update_rows_deleted_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> latency_buckets_{};
  std::array<std::array<std::atomic<uint64_t>, kNumBuckets>,
             core::kNumSearchStages>
      stage_buckets_{};
  // Text-layer probe counters folded from each search's trace.
  std::atomic<uint64_t> text_probes_{0};
  std::atomic<uint64_t> text_memo_hits_{0};
  std::atomic<uint64_t> text_memo_misses_{0};
  std::atomic<uint64_t> text_candidates_examined_{0};
  std::atomic<uint64_t> text_scan_fallbacks_{0};
  std::atomic<uint64_t> text_all_rows_fallbacks_{0};
};

/// \brief A point-in-time copy of one tenant's rollup counters.
struct TenantMetricsSnapshot {
  uint64_t requests_ok = 0;
  uint64_t requests_overloaded = 0;
  uint64_t requests_truncated = 0;
  uint64_t requests_degraded = 0;
  uint64_t requests_failed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t sessions_created = 0;
  /// Admissions refused by the per-tenant queue share specifically (these
  /// are also counted in requests_overloaded — this tells a hot tenant's
  /// overload apart from a globally full queue).
  uint64_t share_rejections = 0;
  /// Streaming update batches applied to / failed against this tenant.
  uint64_t updates_ok = 0;
  uint64_t updates_failed = 0;
  /// Shards delta-cloned by this tenant's successful update batches,
  /// summed (1 per batch for an unsharded tenant). Divided by updates_ok
  /// this reads out how narrowly the shard hash scopes the average batch —
  /// the whole point of intra-tenant sharding.
  uint64_t update_shards_touched = 0;

  uint64_t TotalRequests() const {
    return requests_ok + requests_overloaded + requests_truncated +
           requests_degraded + requests_failed;
  }
};

/// \brief Per-tenant rollups the service keys by the tenant a request's
/// session is pinned to. The global ServiceMetrics stay the fleet-wide
/// truth (histograms live only there); this registry answers "which tenant
/// is hot / degraded / starving the cache" for ops and benches.
class TenantMetricsRegistry {
 public:
  /// \brief One tenant's live counters. Handed out as a shared_ptr so hot
  /// paths (the per-session caching search fn) bump atomics without
  /// re-taking the registry lock — and so counters survive a concurrent
  /// tenant eviction until the last session drops them.
  struct Counters {
    std::array<std::atomic<uint64_t>, 5> by_outcome{};  // RequestOutcome
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> sessions_created{0};
    std::atomic<uint64_t> share_rejections{0};
    std::atomic<uint64_t> updates_ok{0};
    std::atomic<uint64_t> updates_failed{0};
    std::atomic<uint64_t> update_shards_touched{0};
  };

  /// \brief Finds or creates the tenant's counters.
  std::shared_ptr<Counters> ForTenant(std::string_view tenant);

  /// \brief Convenience: ForTenant + one outcome bump.
  void RecordRequest(std::string_view tenant, RequestOutcome outcome);

  /// \brief Name-ordered snapshot of every tenant seen so far.
  std::map<std::string, TenantMetricsSnapshot> Snapshot() const;

  /// \brief `{"<tenant>": {"requests_ok": ..., ...}, ...}` — the
  /// per-tenant block embedded in BENCH_*.json and mapping_server output.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Counters>, std::less<>> tenants_;
};

}  // namespace mweaver::service

#endif  // MWEAVER_SERVICE_METRICS_H_
