// Workload definitions and set-up: the source database (datagen), the
// published tenant (catalog), and the seeded session plans replayed by the
// load generator (workload::BuildReplayScripts over the Section-6.2 task sets).
// Everything here runs before any timing starts.
#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace mweaver::perfbench {

inline constexpr const char* kTenant = "default";

enum class WorkloadKind { kColdSearch, kHotSessions, kChurn };

/// \brief The fixed shape of one workload. Sizes are chosen so a round
/// (one pass over the seeded session list) is long enough to time whole.
struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kColdSearch;
  std::string name;
  size_t movies = 2000;
  uint32_t shards = 1;
  /// Client threads besides the service workers: the session generator,
  /// plus the writer on the churn workloads. workers + client_threads <=
  /// nproc.
  size_t client_threads = 1;
  size_t workers = 3;
  /// Sessions kept in flight by the generator.
  size_t in_flight = 3;
  /// Sessions per round (about; a fixed subset of the goal-target rows);
  /// 0 = every goal-target row once.
  size_t sessions_per_round = 0;
  /// Timed rounds of a 10-second run (--seconds scales it). A count, not a
  /// duration: a faster program runs the same sessions, not more of them.
  size_t rounds_per_10s = 1;
  /// hot-sessions: sessions per task and round.
  size_t hot_repeats = 0;
  /// Churn workloads: one update batch every this many completed sessions,
  /// and a republish after every this many batches.
  size_t sessions_per_update = 0;
  size_t updates_per_publish = 0;
  size_t rows_per_update = 4;
};

/// \brief Resolves a workload name (cold-search, hot-sessions,
/// update-churn, sharded-churn) against the machine's core count; false if
/// unknown.
bool LookupWorkload(const std::string& name, WorkloadConfig* config);

/// \brief One mapping task with its materialized goal-target rows.
struct Task {
  std::string name;
  std::string goal_canonical;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// \brief One spreadsheet cell typed into a session: grid coordinates plus
/// the goal-target row the value comes from.
struct Keystroke {
  uint32_t grid_row = 0;
  uint32_t col = 0;
  uint32_t task_row = 0;
};

/// \brief One scripted session: the first row typed column by column (the
/// last of those keystrokes fires the sample search), then pruning rows
/// until the session converges or the script runs out.
struct SessionPlan {
  uint32_t task = 0;
  std::vector<Keystroke> keys;
  /// Index in `keys` of the keystroke that completes the first row.
  uint32_t search_key = 0;
};

/// \brief One row the churn writer inserts (and deletes in its next
/// batch): a copy of an existing entity row under a fresh primary key, so
/// it is a new entity that nothing references yet.
struct UpdateRow {
  std::string relation;
  storage::Row row;
};

struct SetupTimes {
  double datagen_s = 0.0;
  double publish_s = 0.0;
  double inputs_s = 0.0;
  double total_s() const { return datagen_s + publish_s + inputs_s; }
};

/// \brief Everything a measured round needs, built before timing starts.
struct Environment {
  std::unique_ptr<catalog::Catalog> catalog;
  /// Pristine copy of the generated source; republishes clone it.
  storage::Database source;
  std::vector<Task> tasks;
  std::vector<SessionPlan> plans;
  /// Churn workloads: the writer's insert rows, one list per batch pair.
  std::vector<std::vector<UpdateRow>> update_rows;
  /// Distinct first rows across the plans (result-cache keys).
  size_t distinct_first_rows = 0;
  /// Hash of the seeded inputs: different seeds must give different inputs.
  uint64_t input_fingerprint = 0;
  SetupTimes times;
};

/// \brief Generates the source, publishes the tenant and builds the seeded
/// session plans; times each step.
Environment BuildEnvironment(const WorkloadConfig& config, uint64_t seed);

/// \brief Publishes a fresh catalog holding `source` as the benchmark tenant
/// with `shards` shards (the traced run's layer-replay copy).
std::unique_ptr<catalog::Catalog> PublishCopy(const storage::Database& source,
                                              uint32_t shards);

}  // namespace mweaver::perfbench

#endif  // PERFBENCH_SETUP_H_
