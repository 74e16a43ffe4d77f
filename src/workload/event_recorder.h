// EventRecorder: per-actor request bookkeeping, and the aggregator that
// folds every recorder into per-phase / per-actor-type statistics.
//
// Each actor thread owns exactly one EventRecorder and is its only writer,
// so the hot Record() path takes no lock and touches no shared cache line —
// the "lock-free-ish" design the harness needs to avoid perturbing the
// latencies it measures. Aggregation happens once, after all actor threads
// have joined.
//
// Latencies go into one LatencyHistogram (common/latency_histogram.h) per
// (phase, actor) cell: recording is O(1), memory is fixed however many
// requests a phase makes, and the aggregator merges cells bucket by bucket,
// so every recorded request counts toward the percentiles.
#ifndef MWEAVER_WORKLOAD_EVENT_RECORDER_H_
#define MWEAVER_WORKLOAD_EVENT_RECORDER_H_

#include <cstdint>
#include <vector>

#include "common/latency_histogram.h"
#include "service/metrics.h"
#include "workload/scenario.h"

namespace mweaver::workload {

/// \brief Terminal request outcomes bucketed by the harness. Truncated
/// responses count as `timeout` — a deadline cut the work short.
struct OutcomeCounts {
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t overloaded = 0;
  uint64_t timeout = 0;
  uint64_t failed = 0;

  uint64_t Total() const {
    return ok + degraded + overloaded + timeout + failed;
  }
  void Add(const OutcomeCounts& other);
};

/// \brief Aggregated statistics for one (phase, actor type) cell — also
/// used for per-phase totals.
struct CellStats {
  OutcomeCounts outcomes;
  uint64_t overload_retries = 0;
  /// Sessions the actor could not even open (service errors).
  uint64_t session_failures = 0;
  LatencyHistogram latency;

  void Merge(const CellStats& other);
};

/// \brief One actor thread's private recorder. NOT thread-safe by design:
/// exactly one actor writes it, and the aggregator reads it only after the
/// actor joined.
class EventRecorder {
 public:
  EventRecorder(size_t num_phases, ActorType type);

  ActorType type() const { return type_; }

  void Record(size_t phase, service::RequestOutcome outcome,
              double latency_ms);
  void RecordOverloadRetry(size_t phase);
  void RecordSessionFailure(size_t phase);

  const CellStats& phase_stats(size_t phase) const {
    return phases_[phase];
  }
  size_t num_phases() const { return phases_.size(); }

 private:
  ActorType type_;
  std::vector<CellStats> phases_;
};

/// \brief Everything the aggregator distills for one phase.
struct PhaseStats {
  /// Indexed by ActorType.
  std::vector<CellStats> by_actor;
  CellStats total;
};

/// \brief Merges all recorders into per-phase stats (index = phase).
std::vector<PhaseStats> AggregateRecorders(
    const std::vector<EventRecorder>& recorders, size_t num_phases);

}  // namespace mweaver::workload

#endif  // MWEAVER_WORKLOAD_EVENT_RECORDER_H_
