// Ablation & substrate microbenchmarks (google-benchmark): the design
// choices DESIGN.md calls out —
//  * PMNJ: search cost & candidate count vs the join-depth bound,
//  * match policy: the cost of looser error models for the ⊙ operator,
//  * database scale: search time vs instance size (the paper's future-work
//    scalability question),
//  * substrate ops: full-text index build, occurrence lookup, weave step.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "core/sample_search.h"
#include "core/tuple_path.h"
#include "query/executor.h"

namespace {

using namespace mweaver;

// One environment per DB scale, built lazily and cached.
const bench::YahooEnv& EnvAt(size_t movies) {
  static std::map<size_t, std::unique_ptr<bench::YahooEnv>>& cache =
      *new std::map<size_t, std::unique_ptr<bench::YahooEnv>>();
  auto it = cache.find(movies);
  if (it == cache.end()) {
    it = cache.emplace(movies, std::make_unique<bench::YahooEnv>(movies))
             .first;
  }
  return *it->second;
}

std::vector<std::string> SampleRow(const bench::YahooEnv& env,
                                   size_t task_set, size_t task,
                                   uint64_t seed) {
  query::PathExecutor executor(&env.engine());
  auto target = executor.EvaluateTarget(
      env.task_sets()[task_set].tasks[task].mapping, 200);
  Rng rng(seed);
  return rng.Pick(*target);
}

// ------------------------------------------------------------- substrate --

void BM_FullTextIndexBuild(benchmark::State& state) {
  const size_t movies = static_cast<size_t>(state.range(0));
  datagen::YahooMoviesConfig config;
  config.num_movies = movies;
  const storage::Database db = datagen::MakeYahooMovies(config);
  for (auto _ : state) {
    text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
    benchmark::DoNotOptimize(engine.num_indexed_attributes());
  }
  state.counters["rows"] = static_cast<double>(db.TotalRows());
}
BENCHMARK(BM_FullTextIndexBuild)->Arg(50)->Arg(150)->Arg(400);

void BM_FindOccurrences(benchmark::State& state) {
  const bench::YahooEnv& env = EnvAt(150);
  // A fresh engine each run would defeat the cache; instead rotate samples.
  const auto row = SampleRow(env, 0, 0, 17);
  size_t i = 0;
  for (auto _ : state) {
    // Vary the sample so the memoization cache does not trivialize this.
    const std::string sample = row[i % row.size()] + (i % 2 ? "" : " ");
    ++i;
    benchmark::DoNotOptimize(env.engine().FindOccurrences(sample));
  }
}
BENCHMARK(BM_FindOccurrences);

void BM_WeaveOperation(benchmark::State& state) {
  // Micro-cost of Algorithm 6 on a graft-shaped weave.
  core::TuplePath base = core::TuplePath::SingleVertex(0, 0);
  auto v1 = base.AddVertex(1, 0, 0, 0, true);
  auto v2 = base.AddVertex(2, 0, v1, 1, false);
  base.AddProjection(0, 0, 1, 1.0);
  base.AddProjection(1, v2, 1, 1.0);

  core::TuplePath ptp = core::TuplePath::SingleVertex(0, 0);
  auto w1 = ptp.AddVertex(3, 0, 0, 2, true);
  auto w2 = ptp.AddVertex(4, 0, w1, 3, false);
  ptp.AddProjection(0, 0, 1, 1.0);
  ptp.AddProjection(2, w2, 1, 1.0);

  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TuplePath::Weave(base, ptp));
  }
}
BENCHMARK(BM_WeaveOperation);

// ---------------------------------------------------------------- PMNJ --

void BM_SearchVsPmnj(benchmark::State& state) {
  const bench::YahooEnv& env = EnvAt(150);
  const auto row = SampleRow(env, 1, 0, 23);  // J=3, m=3
  core::SearchOptions options;
  options.pmnj = static_cast<int>(state.range(0));
  size_t candidates = 0, tuple_paths = 0;
  for (auto _ : state) {
    auto result = core::SampleSearch(env.engine(), env.graph(), row,
                                     options);
    candidates = result->candidates.size();
    tuple_paths = result->stats.weave.total_tuple_paths;
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["tuple_paths"] = static_cast<double>(tuple_paths);
}
BENCHMARK(BM_SearchVsPmnj)->Arg(1)->Arg(2)->Arg(3);

// -------------------------------------------------------- match policies --

void BM_SearchVsPolicy(benchmark::State& state) {
  static const text::MatchPolicy kPolicies[] = {
      text::MatchPolicy::Exact(), text::MatchPolicy::Substring(),
      text::MatchPolicy::TokenSubset(), text::MatchPolicy::Fuzzy(1)};
  const bench::YahooEnv& env = EnvAt(150);
  const text::FullTextEngine engine(&env.db(),
                                    kPolicies[state.range(0)]);
  const auto row = SampleRow(env, 0, 0, 29);
  size_t candidates = 0;
  for (auto _ : state) {
    auto result = core::SampleSearch(engine, env.graph(), row);
    candidates = result->candidates.size();
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_SearchVsPolicy)
    ->Arg(0)  // exact
    ->Arg(1)  // substring
    ->Arg(2)  // token subset
    ->Arg(3);  // fuzzy

// -------------------------------------------------------------- DB scale --

void BM_SearchVsScale(benchmark::State& state) {
  const bench::YahooEnv& env = EnvAt(static_cast<size_t>(state.range(0)));
  const auto row = SampleRow(env, 0, 1, 31);  // J=2, m=4
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SampleSearch(env.engine(), env.graph(), row));
  }
  state.counters["db_rows"] = static_cast<double>(env.db().TotalRows());
}
BENCHMARK(BM_SearchVsScale)->Arg(50)->Arg(150)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
