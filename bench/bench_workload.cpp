// bench_workload: the phased-workload harness entry point. Loads a
// declarative scenario (bench/scenarios/*.scenario), drives a
// MappingService through its phases with the mixed actor fleet, prints a
// per-phase summary, and persists the perf trajectory as
// BENCH_service_scenarios.json. Optionally gates against a checked-in
// baseline (CI smoke job).
//
//   bench_workload <scenario-file> [options]
//     --out=FILE          output JSON path
//                         (default BENCH_service_scenarios.json)
//     --baseline=FILE     compare p95s against this prior report; exit 1
//                         on regression beyond the band
//     --tolerance=F       relative p95 band for --baseline (default 0.25)
//     --floor-ms=F        absolute p95 slack in ms (default 10)
//     --movies=N          override the scenario's source-database scale
//     --tenants=N         override the scenario's tenant count (each gets
//                         its own catalog snapshot of the same source)
//
// Exit codes: 0 ok; 1 hard request failures or baseline regression;
// 2 usage/config errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "workload/baseline.h"
#include "workload/runner.h"
#include "workload/scenario_parser.h"

namespace {

using mweaver::workload::BaselineCheckOptions;
using mweaver::workload::CompareToBaseline;
using mweaver::workload::ReplayScript;
using mweaver::workload::Scenario;
using mweaver::workload::ScenarioParser;
using mweaver::workload::ScenarioReport;
using mweaver::workload::ScenarioRunner;

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, read);
  }
  std::fclose(file);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--out=FILE] [--baseline=FILE] "
               "[--tolerance=F] [--floor-ms=F] [--movies=N] [--tenants=N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mweaver;

  std::string scenario_path;
  std::string out_path = "BENCH_service_scenarios.json";
  std::string baseline_path;
  BaselineCheckOptions baseline_options;
  size_t movies_override = 0;
  size_t tenants_override = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      baseline_options.tolerance = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg.rfind("--floor-ms=", 0) == 0) {
      baseline_options.abs_floor_ms = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg.rfind("--movies=", 0) == 0) {
      movies_override = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--tenants=", 0) == 0) {
      tenants_override = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (scenario_path.empty()) return Usage(argv[0]);

  auto parsed = ScenarioParser::ParseFile(scenario_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "scenario error: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  Scenario scenario = std::move(parsed).ValueOrDie();
  if (movies_override > 0) scenario.movies = movies_override;
  if (tenants_override > 0) scenario.tenants = tenants_override;

  const bench::YahooEnv env(scenario.movies);
  env.PrintHeader("Phased workload scenario runner");
  std::printf("scenario '%s' (%zu phases), seed %llu, %zu workers, queue "
              "%zu, cache %zu, tenants %zu%s\n\n",
              scenario.name.c_str(), scenario.phases.size(),
              static_cast<unsigned long long>(scenario.seed),
              scenario.workers, scenario.queue_depth,
              scenario.cache_capacity, scenario.tenants,
              scenario.publish_churn ? " (publish churn)" : "");

  // Every tenant serves its own snapshot of the same synthetic source:
  // identical data per tenant keeps cells comparable across tenant
  // counts, while the catalog still treats them as fully independent
  // (separate snapshots, epochs, cache key spaces).
  catalog::Catalog cat;
  workload::TenantTopology topology;
  topology.catalog = &cat;
  topology.make_database = [&env]() { return env.db().Clone(); };
  if (scenario.tenants == 1) {
    topology.tenants.push_back(std::string(service::kDefaultTenant));
  } else {
    for (size_t t = 0; t < scenario.tenants; ++t) {
      topology.tenants.push_back("t" + std::to_string(t));
    }
  }
  for (const std::string& tenant : topology.tenants) {
    if (auto published = cat.Publish(tenant, env.db().Clone());
        !published.ok()) {
      std::fprintf(stderr, "publish error (%s): %s\n", tenant.c_str(),
                   published.status().ToString().c_str());
      return 2;
    }
  }

  service::ServiceOptions options;
  options.num_workers = scenario.workers;
  options.max_queue_depth = scenario.queue_depth;
  options.cache_capacity = scenario.cache_capacity;
  service::MappingService svc(&cat, options);

  const std::vector<ReplayScript> scripts = workload::BuildReplayScripts(
      env.engine(), env.task_sets(), scenario.max_script_rows);
  ScenarioRunner runner(&svc, &scripts, std::move(topology));
  auto run = runner.Run(scenario);
  if (!run.ok()) {
    std::fprintf(stderr, "run error: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const ScenarioReport& report = *run;
  report.PrintSummary(stdout);
  if (scenario.tenants > 1) {
    std::printf("\nper-tenant: %s\n", svc.PerTenantMetricsJson().c_str());
  }

  const std::string json = report.ToJson();
  if (Status write = workload::WriteFileAtomic(out_path, json);
      !write.ok()) {
    std::fprintf(stderr, "write error: %s\n", write.ToString().c_str());
    return 2;
  }
  std::printf("\nwrote %s (%zu bytes)\n", out_path.c_str(), json.size());

  int exit_code = 0;
  if (report.TotalFailures() > 0) {
    std::fprintf(stderr, "\nFAILED: %llu hard request/session failures\n",
                 static_cast<unsigned long long>(report.TotalFailures()));
    exit_code = 1;
  }

  if (!baseline_path.empty()) {
    std::string baseline_json;
    if (!ReadFile(baseline_path, &baseline_json)) {
      std::fprintf(stderr, "cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    auto comparison =
        CompareToBaseline(json, baseline_json, baseline_options);
    if (!comparison.ok()) {
      std::fprintf(stderr, "baseline error: %s\n",
                   comparison.status().ToString().c_str());
      return 2;
    }
    std::printf("\n%s", comparison->ToString().c_str());
    if (!comparison->ok) exit_code = 1;
  }
  return exit_code;
}
