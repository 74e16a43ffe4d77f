// Figure 12: "Average Number of Candidate Mappings w.r.t. the Number of
// Simulated Samples" — one series per (J, m) combination.
//
// Paper shape: the candidate count drops dramatically within the first few
// samples after the initial search and reaches 1 at about 2m samples on
// average (worst case ~8m).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace mweaver;
  const bench::YahooEnv env;
  const size_t reps = bench::EnvSize("MWEAVER_BENCH_REPS", 20);
  env.PrintHeader(
      "Figure 12: avg #candidate mappings vs #simulated samples");

  for (size_t s = 0; s < env.task_sets().size(); ++s) {
    const datagen::TaskSet& set = env.task_sets()[s];
    std::printf("--- Task set %zu (J=%d) ---\n", s + 1, set.joins);
    for (const datagen::TaskMapping& task : set.tasks) {
      const size_t m = task.mapping.size();
      // Accumulate the candidate count per sample index; sessions that
      // converged early contribute 1 from then on (the user stopped).
      std::vector<double> sums;
      std::vector<size_t> counts;
      double samples_to_converge = 0;
      size_t discovered = 0;
      for (size_t rep = 0; rep < reps; ++rep) {
        datagen::SimulationOptions options;
        options.seed = 12'000 + s * 531 + m * 77 + rep;
        auto sim = datagen::SimulateUserSession(env.engine(), env.graph(),
                                                task, options);
        if (!sim.ok()) {
          std::fprintf(stderr, "simulation failed: %s\n",
                       sim.status().ToString().c_str());
          return 1;
        }
        if (sim->discovered) {
          ++discovered;
          samples_to_converge += static_cast<double>(sim->num_samples);
        }
        const auto& series = sim->candidates_after_sample;
        if (series.size() > sums.size()) {
          sums.resize(series.size(), 0.0);
          counts.resize(series.size(), 0);
        }
        for (size_t i = 0; i < sums.size(); ++i) {
          const size_t value =
              i < series.size() ? series[i]
                                : (sim->discovered ? 1 : series.back());
          sums[i] += static_cast<double>(value);
          ++counts[i];
        }
      }
      std::printf("m=%zu  (converged %zu/%zu, avg %.1f samples)\n  x=", m,
                  discovered, reps,
                  discovered ? samples_to_converge / discovered : 0.0);
      const size_t limit = std::min<size_t>(sums.size(), 4 * m);
      // A leading space keeps the columns apart at any value width.
      for (size_t i = m - 1; i < limit; ++i) std::printf(" %5zu", i + 1);
      std::printf("\n  y=");
      for (size_t i = m - 1; i < limit; ++i) {
        std::printf(" %5.1f", sums[i] / counts[i]);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "paper shape: sharp drop right after the first row (sample m), "
      "converging to 1 at ~2m samples.\n");
  return 0;
}
