// ScenarioRunner: executes a parsed Scenario against a MappingService and
// produces a ScenarioReport — the persisted perf-trajectory record written
// as BENCH_service_scenarios.json (schema in DESIGN.md §11).
//
// One std::thread per actor (the per-phase maximum across the scenario);
// actors that a phase doesn't use park at the phase barrier and sleep the
// phase out. Per phase the runner also snapshots the service metrics and
// resets the latency histograms, so each PhaseReport carries the service's
// own view of just that interval alongside the harness-side measurements.
#ifndef MWEAVER_WORKLOAD_RUNNER_H_
#define MWEAVER_WORKLOAD_RUNNER_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "service/mapping_service.h"
#include "storage/database.h"
#include "workload/event_recorder.h"
#include "workload/replay.h"
#include "workload/scenario.h"

namespace mweaver::workload {

/// \brief Measured results of one phase.
struct PhaseReport {
  std::string name;
  ArrivalModel arrival = ArrivalModel::kClosed;
  double wall_seconds = 0.0;
  PhaseStats stats;
  /// Service-side counters for this interval: counter fields are deltas
  /// against the phase start, histogram percentiles cover only this phase
  /// (the runner resets the histograms at each phase boundary).
  service::MetricsSnapshot service;
};

/// \brief The full scenario result.
struct ScenarioReport {
  std::string scenario_name;
  uint64_t seed = 0;
  size_t movies = 0;
  size_t workers = 0;
  size_t queue_depth = 0;
  size_t cache_capacity = 0;
  size_t scripts = 0;
  size_t tenants = 1;
  bool publish_churn = false;
  double wall_seconds = 0.0;
  std::vector<PhaseReport> phases;
  /// Cumulative service counters at scenario end (histograms reflect the
  /// final phase only, per the interval resets).
  service::MetricsSnapshot final_service;
  /// Per-tenant rollup JSON object at scenario end (from
  /// MappingService::PerTenantMetricsJson); "{}" when no tenant traffic.
  std::string per_tenant_json = "{}";

  uint64_t TotalRequests() const;
  /// Hard request failures (kFailed outcomes + failed session opens) —
  /// nonzero means the run itself is suspect.
  uint64_t TotalFailures() const;

  /// \brief Serializes the report as the BENCH_service_scenarios.json
  /// document.
  std::string ToJson() const;

  /// \brief Human-readable per-phase table.
  void PrintSummary(std::FILE* out) const;
};

/// \brief The multi-tenant wiring for a scenario run: which catalog
/// tenants exist and how to mint a fresh database instance for publish
/// churn. Every named tenant must already be published before Run().
struct TenantTopology {
  catalog::Catalog* catalog = nullptr;
  /// Actor assignment targets, round-robin over the scenario's actors.
  /// Empty = single-tenant (everything lands on service::kDefaultTenant).
  std::vector<std::string> tenants;
  /// Builds the database a churning bulk_loader republishes (typically a
  /// Clone() of the scenario's source). Required when the scenario sets
  /// publish_churn.
  std::function<storage::Database()> make_database;
};

/// \brief Runs scenarios over one service + replay-script set. The service
/// and scripts must outlive the runner.
class ScenarioRunner {
 public:
  ScenarioRunner(service::MappingService* service,
                 const std::vector<ReplayScript>* scripts);
  /// \brief Multi-tenant runs: actors are spread round-robin over
  /// `topology.tenants` and publish churn draws from it.
  ScenarioRunner(service::MappingService* service,
                 const std::vector<ReplayScript>* scripts,
                 TenantTopology topology);

  /// \brief Executes every phase. Fails fast on impossible setups (no
  /// scripts, no phases, a multi-tenant scenario without a matching
  /// topology); request-level failures are reported, not thrown.
  Result<ScenarioReport> Run(const Scenario& scenario);

 private:
  service::MappingService* service_;
  const std::vector<ReplayScript>* scripts_;
  TenantTopology topology_;
};

/// \brief Writes `content` to `path` atomically enough for bench output
/// (temp file + rename).
Status WriteFileAtomic(const std::string& path, const std::string& content);

}  // namespace mweaver::workload

#endif  // MWEAVER_WORKLOAD_RUNNER_H_
