#include "workload/event_recorder.h"

#include "common/logging.h"

namespace mweaver::workload {

void OutcomeCounts::Add(const OutcomeCounts& other) {
  ok += other.ok;
  degraded += other.degraded;
  overloaded += other.overloaded;
  timeout += other.timeout;
  failed += other.failed;
}

void CellStats::Merge(const CellStats& other) {
  outcomes.Add(other.outcomes);
  overload_retries += other.overload_retries;
  session_failures += other.session_failures;
  latency.Merge(other.latency);
}

EventRecorder::EventRecorder(size_t num_phases, ActorType type)
    : type_(type), phases_(num_phases) {}

void EventRecorder::Record(size_t phase, service::RequestOutcome outcome,
                           double latency_ms) {
  MW_DCHECK(phase < phases_.size());
  CellStats& cell = phases_[phase];
  switch (outcome) {
    case service::RequestOutcome::kOk:
      ++cell.outcomes.ok;
      break;
    case service::RequestOutcome::kDegraded:
      ++cell.outcomes.degraded;
      break;
    case service::RequestOutcome::kOverloaded:
      ++cell.outcomes.overloaded;
      // Rejected at admission: there is no service latency to record.
      return;
    case service::RequestOutcome::kTruncated:
      ++cell.outcomes.timeout;
      break;
    case service::RequestOutcome::kFailed:
      ++cell.outcomes.failed;
      break;
  }
  cell.latency.Record(latency_ms);
}

void EventRecorder::RecordOverloadRetry(size_t phase) {
  MW_DCHECK(phase < phases_.size());
  ++phases_[phase].overload_retries;
}

void EventRecorder::RecordSessionFailure(size_t phase) {
  MW_DCHECK(phase < phases_.size());
  ++phases_[phase].session_failures;
}

std::vector<PhaseStats> AggregateRecorders(
    const std::vector<EventRecorder>& recorders, size_t num_phases) {
  std::vector<PhaseStats> phases(num_phases);
  for (PhaseStats& phase : phases) {
    phase.by_actor.resize(kNumActorTypes);
  }
  for (const EventRecorder& recorder : recorders) {
    const size_t type = static_cast<size_t>(recorder.type());
    for (size_t p = 0; p < num_phases && p < recorder.num_phases(); ++p) {
      phases[p].by_actor[type].Merge(recorder.phase_stats(p));
      phases[p].total.Merge(recorder.phase_stats(p));
    }
  }
  return phases;
}

}  // namespace mweaver::workload
