// Session benchmark for MWeaver's serving stack.
//
//   perfbench_sessions --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): sets the tenant up several times (reporting the
// median set-up time), warms the service with one untimed round, then runs
// a fixed number of whole rounds of the seeded session list against
// service::MappingService (the workload's count for 10 s, scaled by S / 10,
// so a faster program does not run more rounds), and prints the end-to-end
// metrics. Traced (--trace 1): replays the same inputs serially with spans
// around each layer's public entry points and prints the per-layer metrics
// (see layers.h). Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and a wrong answer or a
// failed, shed or truncated request makes the process exit 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/sample_search.h"
#include "load_generator.h"
#include "layers.h"
#include "setup.h"

namespace mweaver::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t rounds = 0;  // > 0: override the workload's timed round count
  size_t setups = 15;
  size_t movies = 0;     // > 0: override the workload's source size
  size_t in_flight = 0;  // > 0: override the workload's sessions in flight
  bool break_goal = false;  // self-test: expect a goal no session can reach
  bool break_requests = false;  // self-test: every request misses its deadline
  size_t trace_sessions = 480;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strtoul(value, nullptr, 10) != 0;
    } else if (key == "--rounds") {
      args->rounds = std::strtoul(value, nullptr, 10);
    } else if (key == "--setups") {
      args->setups = std::max<size_t>(1, std::strtoul(value, nullptr, 10));
    } else if (key == "--movies") {
      args->movies = std::strtoul(value, nullptr, 10);
    } else if (key == "--in-flight") {
      args->in_flight = std::strtoul(value, nullptr, 10);
    } else if (key == "--break-goal") {
      args->break_goal = std::strtoul(value, nullptr, 10) != 0;
    } else if (key == "--break-requests") {
      args->break_requests = std::strtoul(value, nullptr, 10) != 0;
    } else if (key == "--trace-sessions") {
      args->trace_sessions = std::strtoul(value, nullptr, 10);
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty();
}

// One latency distribution by metric name: <name>_p50_ms ... (n samples).
void PrintLatency(const char* name, const std::vector<double>& ms) {
  std::printf("  %s_p50_ms %.4f ms, %s_p90_ms %.4f ms, %s_p99_ms %.4f ms, "
              "max %.4f ms (n=%zu)\n",
              name, Quantile(ms, 0.5), name, Quantile(ms, 0.9), name,
              Quantile(ms, 0.99), Quantile(ms, 1.0), ms.size());
}

// Re-runs each captured search on a freshly built 1-shard engine over the
// snapshot the service session pinned, and demands identical candidates:
// sharded == monolithic and delta == rebuild. The load generator keeps the
// samples of at most a few distinct snapshots: each needs a full index
// build here.
bool CheckSearchesAgainstRebuild(const Environment& env,
                                 const std::vector<SearchSample>& samples,
                                 size_t* checked) {
  std::map<const catalog::Snapshot*, std::vector<const SearchSample*>> groups;
  for (const SearchSample& s : samples) {
    if (s.snapshot != nullptr) groups[s.snapshot.get()].push_back(&s);
  }
  bool ok = true;
  *checked = 0;
  for (const auto& [snapshot, group] : groups) {
    text::FullTextEngine single(&snapshot->db(),
                                env.catalog->options().match_policy);
    for (const SearchSample* sample : group) {
      const SessionPlan& plan = env.plans[sample->plan];
      const Task& task = env.tasks[plan.task];
      const std::vector<std::string>& first_row =
          task.rows[plan.keys[plan.search_key].task_row];
      auto rerun =
          core::SampleSearch(single, snapshot->graph(), first_row, {});
      ++*checked;
      if (!rerun.ok() || Signatures(rerun->candidates) != sample->candidates) {
        std::printf("WRONG: plan %u (%s) at epoch %llu.%llu: the 1-shard "
                    "re-run differs from the service search\n",
                    sample->plan, task.name.c_str(),
                    static_cast<unsigned long long>(snapshot->epoch()),
                    static_cast<unsigned long long>(snapshot->minor_epoch()));
        ok = false;
      }
    }
  }
  return ok;
}

int RunUntraced(const WorkloadConfig& config, const Args& args) {
  std::vector<double> setup_s;
  Environment env;
  for (size_t i = 0; i < args.setups; ++i) {
    { Environment previous = std::move(env); }  // free it before rebuilding
    env = BuildEnvironment(config, args.seed);
    setup_s.push_back(env.times.total_s());
  }
  if (args.break_goal) {
    // Checks the checker: with a goal nobody can reach, every converged
    // session is a wrong answer and the run must fail.
    for (Task& task : env.tasks) task.goal_canonical = "no such mapping";
  }
  std::printf("workload %s seed %llu: %zu source rows, %zu tasks, %zu "
              "sessions per round, %zu distinct first rows, %u shard(s), %zu "
              "workers, %zu in flight, inputs %016llx\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              env.source.TotalRows(), env.tasks.size(), env.plans.size(),
              env.distinct_first_rows,
              config.shards, config.workers, config.in_flight,
              static_cast<unsigned long long>(env.input_fingerprint));

  service::ServiceOptions options;
  options.num_workers = config.workers;
  options.search_parallelism = 1;
  if (args.break_requests) {
    // Checks the checker: a deadline already past when a request is
    // admitted truncates every keystroke, and the run must fail.
    options.default_deadline = std::chrono::milliseconds(-1);
  }
  service::MappingService service(env.catalog.get(), options);
  LoadGenerator load(&service, &env, config);
  const bool writer = config.kind == WorkloadKind::kChurn;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  size_t wrong = 0;
  const auto absorb = [&](const RoundResult& round) {
    attempted += round.requests;
    failed += round.requests_failed;
    for (const SessionRecord& s : round.sessions) wrong += s.wrong ? 1 : 0;
    errors.insert(errors.end(), round.errors.begin(), round.errors.end());
  };

  RoundOptions round_options;
  round_options.in_flight = config.in_flight;
  if (config.kind == WorkloadKind::kHotSessions) {
    // Untimed warm-up round: every first row's result is cached before
    // timing starts.
    absorb(load.RunRound(round_options));
  }
  round_options.writer = writer;
  round_options.sample_stride = writer ? 2 : 0;

  // A fixed count of rounds, so every build of the program measures the
  // same sessions against the same cache and memo history.
  const size_t timed_rounds =
      args.rounds > 0
          ? args.rounds
          : std::max<size_t>(1, static_cast<size_t>(std::lround(
                                    static_cast<double>(config.rounds_per_10s) *
                                    args.seconds / 10.0)));
  std::vector<RoundResult> rounds;
  while (rounds.size() < timed_rounds) {
    rounds.push_back(load.RunRound(round_options));
    absorb(rounds.back());
    // Searches for the 1-shard re-run come from the first round only: each
    // captured snapshot stays alive until the check.
    round_options.sample_stride = 0;
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> session_ms, search_ms, update_ms, late_ms, publish_ms;
  std::vector<double> per_round_rate;
  std::vector<SearchSample> samples;
  uint64_t sessions = 0, converged = 0, unconverged = 0, search_hits = 0;
  uint64_t failed_sessions = 0, late_sessions = 0;
  for (RoundResult& round : rounds) {
    // Timings come from sessions that ran to the end: a failed session is
    // counted as failed (and fails the run), never as a fast one.
    size_t completed = 0;
    for (const SessionRecord& s : round.sessions) {
      ++sessions;
      if (s.outcome == SessionEnd::kFailed) {
        ++failed_sessions;
        continue;
      }
      ++completed;
      session_ms.push_back(s.session_ms);
      if (s.outcome == SessionEnd::kConverged) ++converged;
      if (s.outcome == SessionEnd::kUnconverged) ++unconverged;
      if (s.search_cache_hit) {
        ++search_hits;
      } else if (s.search_ms > 0) {
        search_ms.push_back(s.search_ms);
      }
    }
    per_round_rate.push_back(static_cast<double>(completed) / round.wall_s);
    for (const UpdateRecord& u : round.updates) {
      if (u.publish) {
        publish_ms.push_back(u.latency_ms);
        continue;
      }
      update_ms.push_back(u.latency_ms);
      late_ms.push_back(u.late_ms);
      late_sessions = std::max(late_sessions, u.late_sessions);
    }
    for (SearchSample& s : round.search_samples) {
      samples.push_back(std::move(s));
    }
  }

  // A failed, shed or truncated request fails the run like a wrong answer.
  bool correct = wrong == 0 && failed == 0;
  size_t rechecked = 0;
  if (writer && !CheckSearchesAgainstRebuild(env, samples, &rechecked)) {
    correct = false;
  }

  const double setup_median = Median(setup_s);
  std::printf("rounds %zu, sessions %llu (converged %llu, unconverged %llu, "
              "failed %llu), requests %llu, failed %llu, wrong %zu\n",
              rounds.size(), static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(converged),
              static_cast<unsigned long long>(unconverged),
              static_cast<unsigned long long>(failed_sessions),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), wrong);
  PrintLatency("session", session_ms);
  if (config.kind != WorkloadKind::kHotSessions) {
    PrintLatency("search", search_ms);
  }
  std::printf("  first-row searches answered from the result cache: %llu of "
              "%llu\n",
              static_cast<unsigned long long>(search_hits),
              static_cast<unsigned long long>(sessions));
  if (writer) {
    PrintLatency("update", update_ms);
    std::printf("  writer lateness: p50 %.3f ms, max %.3f ms, max %llu "
                "sessions behind; %zu republishes (p50 %.1f ms); %zu "
                "searches re-run on a 1-shard engine\n",
                Quantile(late_ms, 0.5), Quantile(late_ms, 1.0),
                static_cast<unsigned long long>(late_sessions),
                publish_ms.size(), Quantile(publish_ms, 0.5), rechecked);
  }
  std::printf("  sessions_per_s %.2f 1/s (median of %zu rounds, %.2f..%.2f)\n",
              Median(per_round_rate), per_round_rate.size(),
              Quantile(per_round_rate, 0.0), Quantile(per_round_rate, 1.0));
  std::printf("  failed_ratio %.6f ratio (%llu of %llu)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  setup_s %.4f s (median of %zu, %.4f..%.4f)\n"
              "  peak_rss_mb %.1f MB\n",
              setup_median, setup_s.size(), Quantile(setup_s, 0.0),
              Quantile(setup_s, 1.0), peak_rss_mb);
  for (const std::string& e : errors) std::printf("ERROR: %s\n", e.c_str());

  MetricList metrics;
  metrics.Add("session_p50_ms", Quantile(session_ms, 0.5), "ms");
  metrics.Add("session_p90_ms", Quantile(session_ms, 0.9), "ms");
  metrics.Add("sessions_per_s", Median(per_round_rate), "1/s");
  metrics.Add("setup_s", setup_median, "s");
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mweaver::perfbench

int main(int argc, char** argv) {
  using namespace mweaver::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sessions --workload "
                 "cold-search|hot-sessions|update-churn|sharded-churn --seed N "
                 "--seconds S "
                 "--trace 0|1 [--rounds R] [--setups K] [--movies M] "
                 "[--in-flight F] [--trace-sessions N] "
                 "[--spans-out FILE] [--break-goal 0|1] "
                 "[--break-requests 0|1]\n");
    return 2;
  }
  WorkloadConfig config;
  if (!LookupWorkload(args.workload, &config)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.movies > 0) config.movies = args.movies;
  if (args.in_flight > 0) config.in_flight = args.in_flight;
  if (args.trace) {
    TracedOptions traced;
    traced.seed = args.seed;
    traced.setups = args.setups;
    traced.sessions = args.trace_sessions;
    traced.spans_out = args.spans_out;
    return RunTraced(config, traced);
  }
  return RunUntraced(config, args);
}
