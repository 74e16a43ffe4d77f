#include "workload/runner.h"

#include <cstdio>
#include <deque>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "workload/actors.h"
#include "common/json_util.h"
#include "workload/orchestrator.h"

namespace mweaver::workload {

namespace {

using Clock = Orchestrator::Clock;

void AppendLatencyJson(JsonWriter* w, const LatencyHistogram& latency) {
  w->BeginObject();
  w->KV("p50_ms", latency.PercentileMs(0.50));
  w->KV("p95_ms", latency.PercentileMs(0.95));
  w->KV("p99_ms", latency.PercentileMs(0.99));
  w->KV("mean_ms", latency.MeanMs());
  w->KV("max_ms", latency.max_ms());
  w->KV("samples", latency.count());
  w->EndObject();
}

void AppendOutcomesJson(JsonWriter* w, const OutcomeCounts& outcomes) {
  w->BeginObject();
  w->KV("ok", outcomes.ok);
  w->KV("degraded", outcomes.degraded);
  w->KV("overloaded", outcomes.overloaded);
  w->KV("timeout", outcomes.timeout);
  w->KV("failed", outcomes.failed);
  w->EndObject();
}

void AppendCellJson(JsonWriter* w, const CellStats& cell,
                    double wall_seconds) {
  const uint64_t completed = cell.latency.count();
  w->Key("requests").UInt(cell.outcomes.Total());
  w->KV("throughput_rps",
        wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds
                           : 0.0);
  w->Key("latency_ms");
  AppendLatencyJson(w, cell.latency);
  w->Key("outcomes");
  AppendOutcomesJson(w, cell.outcomes);
  w->KV("overload_retries", cell.overload_retries);
  w->KV("session_failures", cell.session_failures);
}

}  // namespace

uint64_t ScenarioReport::TotalRequests() const {
  uint64_t total = 0;
  for (const PhaseReport& phase : phases) {
    total += phase.stats.total.outcomes.Total();
  }
  return total;
}

uint64_t ScenarioReport::TotalFailures() const {
  uint64_t total = 0;
  for (const PhaseReport& phase : phases) {
    total += phase.stats.total.outcomes.failed +
             phase.stats.total.session_failures;
  }
  return total;
}

std::string ScenarioReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", uint64_t{1});
  w.KV("kind", "service_scenarios");
  w.KV("scenario", scenario_name);
  w.KV("seed", seed);
  w.Key("config").BeginObject();
  w.KV("movies", static_cast<uint64_t>(movies));
  w.KV("workers", static_cast<uint64_t>(workers));
  w.KV("queue_depth", static_cast<uint64_t>(queue_depth));
  w.KV("cache_capacity", static_cast<uint64_t>(cache_capacity));
  w.KV("replay_scripts", static_cast<uint64_t>(scripts));
  w.KV("tenants", static_cast<uint64_t>(tenants));
  w.KV("publish_churn", publish_churn ? "on" : "off");
  w.EndObject();
  w.KV("wall_seconds", wall_seconds);
  w.KV("total_requests", TotalRequests());
  w.KV("total_failures", TotalFailures());

  w.Key("phases").BeginArray();
  for (const PhaseReport& phase : phases) {
    w.BeginObject();
    w.KV("name", phase.name);
    w.KV("arrival", ArrivalModelName(phase.arrival));
    w.KV("wall_seconds", phase.wall_seconds);

    w.Key("actors").BeginArray();
    for (size_t t = 0; t < kNumActorTypes; ++t) {
      const CellStats& cell = phase.stats.by_actor[t];
      if (cell.outcomes.Total() == 0 && cell.session_failures == 0) {
        continue;
      }
      w.BeginObject();
      w.KV("type", ActorTypeName(static_cast<ActorType>(t)));
      AppendCellJson(&w, cell, phase.wall_seconds);
      w.EndObject();
    }
    w.EndArray();

    w.Key("total").BeginObject();
    AppendCellJson(&w, phase.stats.total, phase.wall_seconds);
    w.EndObject();

    w.Key("service").Raw(phase.service.ToJson());
    w.EndObject();
  }
  w.EndArray();

  w.Key("service_final").Raw(final_service.ToJson());
  w.Key("service_per_tenant")
      .Raw(per_tenant_json.empty() ? "{}" : per_tenant_json);
  w.EndObject();
  return w.Finish();
}

void ScenarioReport::PrintSummary(std::FILE* out) const {
  std::fprintf(out,
               "scenario '%s': %zu phase(s), %.2f s wall, %llu requests, "
               "%llu failures\n",
               scenario_name.c_str(), phases.size(), wall_seconds,
               static_cast<unsigned long long>(TotalRequests()),
               static_cast<unsigned long long>(TotalFailures()));
  std::fprintf(out,
               "%-12s %-7s %8s %9s %9s %9s %9s  %s\n", "phase", "arrive",
               "reqs", "rps", "p50 ms", "p95 ms", "p99 ms",
               "ok/degr/over/tmo/fail");
  for (const PhaseReport& phase : phases) {
    const CellStats& total = phase.stats.total;
    std::fprintf(
        out, "%-12s %-7s %8llu %9.1f %9.3f %9.3f %9.3f  %llu/%llu/%llu/%llu/%llu\n",
        phase.name.c_str(), ArrivalModelName(phase.arrival),
        static_cast<unsigned long long>(total.outcomes.Total()),
        phase.wall_seconds > 0.0
            ? static_cast<double>(total.latency.count()) / phase.wall_seconds
            : 0.0,
        total.latency.PercentileMs(0.50), total.latency.PercentileMs(0.95),
        total.latency.PercentileMs(0.99),
        static_cast<unsigned long long>(total.outcomes.ok),
        static_cast<unsigned long long>(total.outcomes.degraded),
        static_cast<unsigned long long>(total.outcomes.overloaded),
        static_cast<unsigned long long>(total.outcomes.timeout),
        static_cast<unsigned long long>(total.outcomes.failed));
    for (size_t t = 0; t < kNumActorTypes; ++t) {
      const CellStats& cell = phase.stats.by_actor[t];
      if (cell.outcomes.Total() == 0) continue;
      std::fprintf(
          out, "  %-17s %8llu %9s %9.3f %9.3f %9.3f\n",
          ActorTypeName(static_cast<ActorType>(t)),
          static_cast<unsigned long long>(cell.outcomes.Total()), "",
          cell.latency.PercentileMs(0.50), cell.latency.PercentileMs(0.95),
          cell.latency.PercentileMs(0.99));
    }
  }
}

ScenarioRunner::ScenarioRunner(service::MappingService* service,
                               const std::vector<ReplayScript>* scripts)
    : ScenarioRunner(service, scripts, TenantTopology{}) {}

ScenarioRunner::ScenarioRunner(service::MappingService* service,
                               const std::vector<ReplayScript>* scripts,
                               TenantTopology topology)
    : service_(service), scripts_(scripts), topology_(std::move(topology)) {
  MW_CHECK(service_ != nullptr);
  MW_CHECK(scripts_ != nullptr);
}

Result<ScenarioReport> ScenarioRunner::Run(const Scenario& scenario) {
  if (scripts_->empty()) {
    return Status::FailedPrecondition(
        "no replay scripts: the task workload materialized no complete "
        "goal-target rows");
  }
  if (scenario.phases.empty()) {
    return Status::InvalidArgument("scenario has no phases");
  }
  if (scenario.tenants > 1 &&
      topology_.tenants.size() < scenario.tenants) {
    return Status::FailedPrecondition(
        StrFormat("scenario wants %zu tenants but the topology provides "
                  "%zu",
                  scenario.tenants, topology_.tenants.size()));
  }
  if (scenario.publish_churn &&
      (topology_.catalog == nullptr || !topology_.make_database)) {
    return Status::FailedPrecondition(
        "scenario sets publish_churn but the topology has no catalog / "
        "make_database");
  }

  // One actor thread per (type, ordinal) up to the per-type maximum; a
  // phase that uses fewer simply parks the extras at the barriers. Actors
  // are dealt their tenant round-robin within each type, so every tenant
  // sees every traffic shape the scenario mixes.
  const std::array<size_t, kNumActorTypes> max_counts =
      scenario.MaxActorCounts();
  std::deque<Actor> actors;
  for (size_t t = 0; t < kNumActorTypes; ++t) {
    for (size_t k = 0; k < max_counts[t]; ++k) {
      Actor::Config config;
      config.service = service_;
      config.scripts = scripts_;
      config.type = static_cast<ActorType>(t);
      config.ordinal = k;
      config.seed = scenario.seed;
      if (scenario.tenants > 1) {
        config.tenant = topology_.tenants[k % scenario.tenants];
      } else if (!topology_.tenants.empty()) {
        config.tenant = topology_.tenants.front();
      }
      if (scenario.publish_churn) {
        config.catalog = topology_.catalog;
        config.make_database = &topology_.make_database;
        config.publish_churn = true;
      }
      actors.emplace_back(config, scenario.phases.size());
    }
  }
  if (actors.empty()) {
    return Status::InvalidArgument("scenario activates no actors");
  }

  // The runner thread joins the barriers too: the gap between a phase's
  // leave barrier and the next phase's enter barrier is its quiescent
  // window for snapshotting service metrics.
  Orchestrator orchestrator(actors.size() + 1);

  std::vector<std::thread> threads;
  threads.reserve(actors.size());
  {
    size_t actor_index = 0;
    for (size_t t = 0; t < kNumActorTypes; ++t) {
      for (size_t k = 0; k < max_counts[t]; ++k, ++actor_index) {
        Actor* actor = &actors[actor_index];
        threads.emplace_back([&orchestrator, &scenario, actor, t, k]() {
          for (size_t p = 0; p < scenario.phases.size(); ++p) {
            const PhaseSpec& spec = scenario.phases[p];
            PhaseRuntime runtime;
            runtime.spec = &spec;
            runtime.index = p;
            runtime.start = orchestrator.EnterPhase(p);
            runtime.deadline = spec.iterations > 0
                                   ? Clock::time_point::max()
                                   : runtime.start + spec.duration;
            runtime.active_actors = spec.TotalActors();
            // Actors are ordered by (type, ordinal): this actor's slot
            // among the phase's active actors is the count of active
            // actors of earlier types plus its ordinal.
            size_t slot = k;
            for (size_t earlier = 0; earlier < t; ++earlier) {
              slot += spec.actor_counts[earlier];
            }
            runtime.active_slot = slot;
            const bool active =
                k < spec.actor_counts[t] && !orchestrator.cancelled();
            if (active) actor->RunPhase(runtime);
            // Inactive actors skip straight to the leave barrier: it
            // releases only when the phase's active actors finish, so
            // they sleep the phase out without busy-waiting.
            orchestrator.LeavePhase(p);
          }
        });
      }
    }
  }

  ScenarioReport report;
  report.scenario_name = scenario.name;
  report.seed = scenario.seed;
  report.movies = scenario.movies;
  report.workers = scenario.workers;
  report.queue_depth = scenario.queue_depth;
  report.cache_capacity = scenario.cache_capacity;
  report.scripts = scripts_->size();
  report.tenants = scenario.tenants;
  report.publish_churn = scenario.publish_churn;
  report.phases.reserve(scenario.phases.size());

  const Clock::time_point run_start = Clock::now();
  for (size_t p = 0; p < scenario.phases.size(); ++p) {
    // Quiescent window (no actor is between barriers yet): the phase's
    // service view is the delta between this snapshot and the next.
    const service::MetricsSnapshot before = service_->SnapshotMetrics();
    const Clock::time_point start = orchestrator.EnterPhase(p);
    orchestrator.LeavePhase(p);  // blocks until every actor finished p
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();

    PhaseReport phase;
    phase.name = scenario.phases[p].name;
    phase.arrival = scenario.phases[p].arrival;
    phase.wall_seconds = wall;
    phase.service = service_->SnapshotMetrics().Delta(before);
    report.phases.push_back(std::move(phase));
  }
  for (std::thread& thread : threads) thread.join();
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  report.final_service = service_->SnapshotMetrics();
  report.per_tenant_json = service_->PerTenantMetricsJson();

  // Fold the per-actor recorders into the per-phase cells.
  std::vector<EventRecorder> recorders;
  recorders.reserve(actors.size());
  for (Actor& actor : actors) recorders.push_back(actor.recorder());
  std::vector<PhaseStats> stats =
      AggregateRecorders(recorders, scenario.phases.size());
  for (size_t p = 0; p < report.phases.size(); ++p) {
    report.phases[p].stats = std::move(stats[p]);
  }
  return report;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError(StrFormat("cannot write '%s'", tmp.c_str()));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool flushed = std::fclose(file) == 0 && written == content.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    return Status::IOError(StrFormat("short write to '%s'", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(
        StrFormat("cannot rename '%s' -> '%s'", tmp.c_str(), path.c_str()));
  }
  return Status::OK();
}

}  // namespace mweaver::workload
