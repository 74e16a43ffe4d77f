// Scenario: the declarative data model of the phased workload harness
// (DESIGN.md §11). A scenario names a service configuration and an ordered
// list of phases; each phase runs a mix of actor types under one arrival
// model until its duration (or per-actor iteration budget) runs out. The
// runner (runner.h) drives a MappingService through the phases with every
// actor gated at phase barriers, in the style of Genny's PhaseLoop /
// Orchestrator design.
#ifndef MWEAVER_WORKLOAD_SCENARIO_H_
#define MWEAVER_WORKLOAD_SCENARIO_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mweaver::workload {

/// \brief The traffic shapes a phase can mix. Each actor type is one
/// thread-per-instance load generator with a distinct access pattern
/// against the mapping service (actors.h has the behaviours).
enum class ActorType {
  /// Opens a session, types one popular first row (firing sample search),
  /// closes. Repeats the same row — the cache-friendly interactive user.
  kSearcher = 0,
  /// Full interactive loop: first row, then goal-target samples row by
  /// row (pruning passes) until the session converges.
  kPruner,
  /// Types every replay row of a script into one session back to back —
  /// batch ingestion of samples, the highest requests-per-session shape.
  kBulkLoader,
  /// Like the searcher but rotates a distinct first row every iteration,
  /// defeating the result cache — the worst-case cold-search stream.
  kCacheBuster,
  /// Streaming writer: applies incremental insert/delete batches to its
  /// tenant through the service's update path, churning minor epochs under
  /// concurrent search traffic. Inserts copies of existing rows and only
  /// ever deletes rows it inserted itself, so batches never conflict.
  kUpdater,
};

inline constexpr size_t kNumActorTypes = 5;

const char* ActorTypeName(ActorType type);
/// \brief Parses "searcher" / "pruner" / "bulk_loader" / "cache_buster" /
/// "updater".
Result<ActorType> ParseActorType(std::string_view name);

/// \brief How requests arrive within a phase.
enum class ArrivalModel {
  /// One outstanding iteration per actor thread; the next starts when the
  /// previous finishes (plus optional think time). Overload backpressure
  /// is retried after a short backoff — closed loops self-throttle.
  kClosed = 0,
  /// Iterations start on a fixed schedule (rate_per_sec across the
  /// phase's actors) regardless of completions. Latency is measured from
  /// the *intended* start, so a backed-up service accrues its backlog in
  /// the tail percentiles instead of silently self-throttling
  /// (coordinated-omission-free). Overloaded responses are recorded and
  /// dropped, not retried.
  kOpen,
};

const char* ArrivalModelName(ArrivalModel model);

/// \brief One named phase: ramp / spike / soak / drain are conventions of
/// the shipped scenarios, not runner semantics — the runner only sees the
/// knobs below.
struct PhaseSpec {
  std::string name;
  /// Time bound; mutually exclusive with `iterations` (exactly one must be
  /// set — the parser enforces it).
  std::chrono::milliseconds duration{0};
  /// Count bound: each active actor runs exactly this many iterations,
  /// which is what makes runner tests deterministic.
  uint64_t iterations = 0;
  ArrivalModel arrival = ArrivalModel::kClosed;
  /// Open-loop total arrival rate (iterations/sec summed over the phase's
  /// actors). Required > 0 when arrival == kOpen.
  double rate_per_sec = 0.0;
  /// Per-request deadline handed to the service (0 = none).
  std::chrono::milliseconds request_deadline{0};
  /// Closed-loop pause between iterations (0 = back to back).
  std::chrono::milliseconds think_time{0};
  /// Threads per actor type active in this phase.
  std::array<size_t, kNumActorTypes> actor_counts{};

  size_t TotalActors() const;
  size_t ActorCount(ActorType type) const {
    return actor_counts[static_cast<size_t>(type)];
  }
};

/// \brief A parsed scenario: service configuration + phases.
struct Scenario {
  std::string name;
  /// Seeds every actor RNG (actor index mixed in), so runs replay.
  uint64_t seed = 1;
  /// Source-database scale (movies in the synthetic generator). The bench
  /// binary can override it from the command line for quick smokes.
  size_t movies = 80;
  /// Service worker threads.
  size_t workers = 4;
  /// Admission queue bound (kOverloaded beyond it).
  size_t queue_depth = 64;
  /// Result-cache capacity (0 disables caching).
  size_t cache_capacity = 256;
  /// Replay rows materialized per task script.
  size_t max_script_rows = 8;
  /// Catalog tenants the scenario spreads its actors over (each actor is
  /// assigned one round-robin). 1 = the single-tenant default, which runs
  /// against service::kDefaultTenant — pre-tenancy scenarios parse and
  /// behave unchanged.
  size_t tenants = 1;
  /// When on, bulk_loader actors republish their tenant (a full snapshot
  /// build + epoch swap) at the top of every iteration before loading —
  /// the ingest-churn traffic shape that proves reads never block on
  /// publishes.
  bool publish_churn = false;
  std::vector<PhaseSpec> phases;

  /// \brief Per-type maximum across phases: the threads the runner spawns
  /// (idle actors park at the phase barrier during phases that don't use
  /// them).
  std::array<size_t, kNumActorTypes> MaxActorCounts() const;
};

}  // namespace mweaver::workload

#endif  // MWEAVER_WORKLOAD_SCENARIO_H_
