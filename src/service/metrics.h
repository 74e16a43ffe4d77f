// The mapping service's one metrics registry. Every request fact is
// counted exactly once, in the record of the tenant the request's session
// is pinned to (or in the "unattributed" record when the request names no
// known session). A service-wide snapshot is the sum of those records;
// only the queue high-water mark is kept service-wide. All mutators are
// lock-free and safe to call concurrently from any worker thread.
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
#include <utility>

#include "common/json_util.h"
#include "common/latency_histogram.h"
#include "core/execution_context.h"
#include "text/lookup_stats.h"

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

/// \brief A point-in-time copy of one tenant's metrics (per-tenant
/// snapshots) or of their sum (the service-wide snapshot).
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

  /// Sessions opened.
  uint64_t sessions_created = 0;
  /// Admissions refused by the per-tenant queue share specifically. These
  /// are also counted in requests_overloaded; this tells a hot tenant's
  /// overload apart from a globally full queue.
  uint64_t share_rejections = 0;

  /// Deepest admission-time queue depth seen: of the whole queue in the
  /// service-wide snapshot, of the tenant's own queued requests in a
  /// per-tenant one. A gauge, not a counter: Merge keeps the larger value
  /// and Delta keeps this snapshot's.
  uint64_t queue_high_water = 0;

  /// Admission-to-finish latency of completed requests (queue wait
  /// included; overloaded requests are not recorded).
  LatencyHistogram latency;

  /// The same histogram per TPW pipeline stage (index = core::SearchStage).
  /// The search stages are recorded per uncached search from its
  /// ExecutionTrace; the kPrune stage per interactive pruning pass
  /// (RecordPruneTrace). Cache hits contribute nothing.
  std::array<LatencyHistogram, core::kNumSearchStages> stage_latency;

  /// Approximate-keyword-lookup counters summed over every recorded search
  /// and pruning trace: per-attribute probes, probe-memo hits/misses,
  /// candidate tokens the text indexes examined, fallbacks, and kernels.
  text::ProbeStats text_probes;

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
  /// Histogram-estimated latency percentile in ms (p in [0,1]), within
  /// LatencyHistogram::kMaxRelativeError of the exact one; 0 with no data.
  double ApproxLatencyPercentileMs(double p) const;
  /// Same, over one pipeline stage's histogram.
  double ApproxStageLatencyPercentileMs(core::SearchStage stage,
                                        double p) const;

  std::string ToString() const;

  /// \brief Writes the snapshot as one JSON object (counters, cache/text
  /// rates, approximate latency percentiles, per-stage percentiles) as the
  /// writer's next value. Schema in DESIGN.md §11.
  void WriteJson(JsonWriter* writer) const;
  /// \brief WriteJson into a document of its own. This is what the
  /// workload runner embeds in BENCH_*.json and examples/mapping_server
  /// prints — external tooling reads metrics without friending service
  /// internals.
  std::string ToJson() const;

  /// \brief Adds `other`'s counters, histograms and probe tallies to this
  /// one (the sum of two tenants, or of two consecutive intervals).
  void Merge(const MetricsSnapshot& other);

  /// \brief Counter-wise difference against an `earlier` snapshot of the
  /// same record: counters and histograms subtract (counters saturate at
  /// 0), so the result describes just the interval between the two. The
  /// queue high-water mark keeps THIS snapshot's value.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;
};

/// \brief The live metrics of one tenant (or of the unattributed
/// requests). Handed out as a shared_ptr so sessions and queued requests
/// record without going back through the registry. A registry holds one
/// record per tenant name.
class TenantMetrics {
 public:
  explicit TenantMetrics(std::string tenant) : tenant_(std::move(tenant)) {}

  TenantMetrics(const TenantMetrics&) = delete;
  TenantMetrics& operator=(const TenantMetrics&) = delete;

  /// \brief The tenant's name; empty for the unattributed record.
  const std::string& tenant() const { return tenant_; }

  /// \brief Counts one request outcome; completed (non-overloaded)
  /// requests also record their latency.
  void RecordRequest(RequestOutcome outcome, double latency_ms);
  /// \brief Raises the queue high-water mark to `depth`.
  void RecordQueueDepth(size_t depth);
  void RecordCacheLookup(bool hit);
  /// \brief Counts one absorbed transient search failure (retry issued).
  void RecordSearchRetry();
  /// \brief Counts one transient update-batch failure retried.
  void RecordUpdateRetry();
  void RecordSessionCreated();
  void RecordShareRejection();
  /// \brief Counts one streaming update batch; its rows are only
  /// accumulated when `ok`.
  void RecordUpdate(bool ok, uint64_t rows_inserted, uint64_t rows_deleted);
  /// \brief Folds one search's per-stage trace into the per-stage latency
  /// histograms and its text-probe counters. The kPrune stage is skipped —
  /// sample search never runs it, and folding its empty span would fill
  /// the prune histogram with zeroes.
  void RecordSearchTrace(const core::ExecutionTrace& trace);
  /// \brief Folds one interactive pruning pass's trace: the kPrune latency
  /// histogram and the pass's text-probe counters. The search-stage
  /// histograms are left untouched (a pruning context carries no search
  /// spans).
  void RecordPruneTrace(const core::ExecutionTrace& trace);

  MetricsSnapshot Snapshot() const;

  /// Queued-but-unstarted requests counted in this record: the depth a
  /// tenant's admission share is checked against. Guarded by the owning
  /// MappingService's queue mutex, not by this record — only admission and
  /// dequeue touch it.
  size_t queued_requests = 0;

 private:
  const std::string tenant_;
  std::array<std::atomic<uint64_t>, 5> by_outcome_{};  // RequestOutcome
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> search_retries_{0};
  std::atomic<uint64_t> update_retries_{0};
  std::atomic<uint64_t> updates_ok_{0};
  std::atomic<uint64_t> updates_failed_{0};
  std::atomic<uint64_t> update_rows_inserted_{0};
  std::atomic<uint64_t> update_rows_deleted_{0};
  std::atomic<uint64_t> sessions_created_{0};
  std::atomic<uint64_t> share_rejections_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  AtomicLatencyHistogram latency_;
  std::array<AtomicLatencyHistogram, core::kNumSearchStages> stage_latency_;
  text::ProbeCounters text_probes_;
};

/// \brief One record per tenant seen, plus the unattributed record and the
/// service-wide queue high-water mark. One instance per MappingService.
class MetricsRegistry {
 public:
  MetricsRegistry();

  /// \brief Finds or creates the tenant's record (takes the registry lock:
  /// callers resolve a record once and keep the pointer).
  std::shared_ptr<TenantMetrics> ForTenant(std::string_view tenant);
  /// \brief The record of requests that name no known session.
  const std::shared_ptr<TenantMetrics>& unattributed() const {
    return unattributed_;
  }
  /// \brief Raises the service-wide queue high-water mark to `depth`.
  void RecordQueueDepth(size_t depth);

  /// \brief Name-ordered snapshot of every tenant seen so far (the
  /// unattributed record is not among them).
  std::map<std::string, MetricsSnapshot> PerTenant() const;
  /// \brief The service-wide snapshot: the tenants' snapshots merged in
  /// name order, then the unattributed record, with the service-wide queue
  /// high-water mark.
  MetricsSnapshot Snapshot() const;
  /// \brief `{"<tenant>": {...}, ...}`, each value a MetricsSnapshot JSON
  /// object.
  std::string PerTenantJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TenantMetrics>, std::less<>> tenants_;
  const std::shared_ptr<TenantMetrics> unattributed_;
  std::atomic<uint64_t> queue_high_water_{0};
};

}  // namespace mweaver::service

#endif  // MWEAVER_SERVICE_METRICS_H_
