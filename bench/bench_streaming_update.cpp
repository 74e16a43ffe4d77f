// Streaming update vs full publish: the cost argument for incremental
// index maintenance. On a Yahoo-Movies tenant (default 2000 movies) the
// harness times (a) full Publish calls — clone the database, rebuild
// every inverted index and the schema graph from scratch, swap — and
// (b) TenantWriter::Apply batches — copy-on-write clone of the touched
// relation, incremental posting-list edits, delta snapshot install.
//
// The gate: a single-relation update batch must be at least 10x cheaper
// than a full publish (it touches one relation out of ~10 and avoids the
// O(corpus) index build entirely; in practice the gap is far larger).
// Exits nonzero when the ratio falls under the gate so CI can fail on a
// regression that silently turns updates back into rebuilds. It also
// prints where a publish spends its time (the database copy, the index
// build, the schema graph) and the shared pool's size; that breakdown is
// diagnostic, not gated.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace {

using namespace mweaver;

double MsSince(bench::BenchClock::time_point start) {
  return std::chrono::duration<double, std::milli>(bench::BenchClock::now() -
                                                   start)
      .count();
}

// Wall time of the database copy a publish is handed, then of each step
// Catalog::Publish takes, in its order.
struct PublishPhases {
  std::vector<double> clone_ms, build_ms, graph_ms;
};

// Replays Catalog::Publish's steps on `db` with each one timed: the engine
// build, then the schema graph.
void TimePublishPhases(const storage::Database& db, PublishPhases* phases) {
  auto start = bench::BenchClock::now();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  phases->build_ms.push_back(MsSince(start));
  start = bench::BenchClock::now();
  const graph::SchemaGraph graph(&db);
  phases->graph_ms.push_back(MsSince(start));
}

}  // namespace

int main() {
  constexpr std::string_view kTenant = "bench";
  const size_t movies = bench::EnvSize("MWEAVER_BENCH_MOVIES", 2000);
  const size_t publish_reps = bench::EnvSize("MWEAVER_BENCH_REPS", 21);
  const size_t update_reps = 50;

  datagen::YahooMoviesConfig config;
  config.num_movies = movies;
  const storage::Database source = datagen::MakeYahooMovies(config);

  catalog::Catalog catalog;
  {
    auto published = catalog.Publish(kTenant, source.CloneCow({}));
    if (!published.ok()) {
      std::fprintf(stderr, "seed publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("=== streaming update vs full publish ===\n");
  std::printf("source: %zu movies — %zu relations, %zu rows\n\n",
              movies, source.num_relations(), source.TotalRows());

  const storage::RelationId movie_rel = source.FindRelation("movie");
  if (movie_rel == storage::kInvalidRelation) {
    std::fprintf(stderr, "no movie relation in the synthetic source\n");
    return 1;
  }
  const storage::Relation& movie = source.relation(movie_rel);
  // Inserted movies copy a source row under a key no movie holds: the
  // writer rejects an insert that repeats a live row's primary key.
  int64_t next_movie_key = 0;
  for (size_t r = 0; r < movie.num_rows(); ++r) {
    next_movie_key = std::max(
        next_movie_key,
        movie.at(static_cast<storage::RowId>(r), 0).AsInt64() + 1);
  }
  const auto movie_copy = [&](size_t index) {
    storage::Row row = movie.row(static_cast<storage::RowId>(index));
    row[0] = storage::Value(next_movie_key++);
    return row;
  };

  // The database a publish rep is handed: the source plus one new movie.
  const auto publish_input = [&](size_t rep) {
    storage::Database next = source.CloneCow({movie_rel});
    next.mutable_relation(movie_rel)->AppendUnchecked(
        movie_copy(rep % movie.num_rows()));
    return next;
  };

  // (a) Full publishes: every rep republishes the source plus one new movie
  // row, rebuilding the whole index bundle. Each rep also replays Publish's
  // steps, timed apart, on a copy of the same input, so the phase medians
  // printed below come from the same allocator and cache state as the
  // publish median. The replay runs before the publish on even reps and
  // after it on odd ones: whichever runs second finds the memory the first
  // freed, and alternating keeps that from favouring one side.
  PublishPhases phases;
  const auto replay_phases = [&](size_t rep) {
    const auto start = bench::BenchClock::now();
    const storage::Database replay = publish_input(rep);
    phases.clone_ms.push_back(MsSince(start));
    TimePublishPhases(replay, &phases);
  };
  std::vector<double> publish_ms;
  publish_ms.reserve(publish_reps);
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    if (rep % 2 == 0) replay_phases(rep);
    storage::Database next = publish_input(rep);
    const auto start = bench::BenchClock::now();
    auto published = catalog.Publish(kTenant, std::move(next));
    const auto end = bench::BenchClock::now();
    if (!published.ok()) {
      std::fprintf(stderr, "publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    publish_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (rep % 2 == 1) replay_phases(rep);
  }

  // (b) Update batches: one inserted movie row per batch, with deletes of
  // earlier inserts folded in once a backlog builds (the updater actor's
  // steady-churn shape).
  catalog::TenantWriter writer(&catalog);
  Rng rng(20260808);
  const auto fresh_movie = [&]() {
    return movie_copy(rng.Index(movie.num_rows()));
  };
  std::vector<storage::RowId> owned;
  std::vector<double> update_ms;
  update_ms.reserve(update_reps);
  for (size_t rep = 0; rep < update_reps; ++rep) {
    catalog::UpdateBatch batch;
    batch.inserts.push_back(catalog::RowInsert{"movie", fresh_movie()});
    if (owned.size() >= 8) {
      batch.deletes.push_back(catalog::RowDelete{"movie", owned.front()});
    }
    const auto start = bench::BenchClock::now();
    auto applied = writer.Apply(kTenant, batch);
    const auto end = bench::BenchClock::now();
    if (!applied.ok()) {
      std::fprintf(stderr, "update failed: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    if (!batch.deletes.empty()) owned.erase(owned.begin());
    owned.insert(owned.end(), applied->inserted_rows.begin(),
                 applied->inserted_rows.end());
    update_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }

  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return total / static_cast<double>(v.size());
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  const double publish_mean = mean(publish_ms);
  const double update_mean = mean(update_ms);
  const double speedup = publish_mean / update_mean;
  bench::PrintRow("", {"mean ms", "median ms", "reps"});
  bench::PrintRow("full publish",
                  {bench::Fmt(publish_mean, 3), bench::Fmt(median(publish_ms), 3),
                   std::to_string(publish_reps)});
  bench::PrintRow("update batch",
                  {bench::Fmt(update_mean, 3), bench::Fmt(median(update_ms), 3),
                   std::to_string(update_reps)});
  std::printf("\nupdate batch is %.1fx cheaper than a full publish\n",
              speedup);

  // Where a full publish spends its time, for reading the gate below on a
  // new host: the replays interleaved with the publishes in (a). "clone" is
  // the copy each publish is handed (outside its timing); "rest" is the
  // median over reps of the timed Publish minus the same rep's replayed
  // steps: what the replay does not repeat (taking over the database, the
  // install, freeing the replaced snapshot).
  std::vector<double> rest_ms;
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    rest_ms.push_back(publish_ms[rep] - phases.build_ms[rep] -
                      phases.graph_ms[rep]);
  }
  std::printf("\npublish phases, median ms (shared pool: %zu threads)\n",
              ThreadPool::Shared().num_threads());
  bench::PrintRow("", {"clone", "build", "graph", "rest"});
  bench::PrintRow("full publish",
                  {bench::Fmt(median(phases.clone_ms), 3),
                   bench::Fmt(median(phases.build_ms), 3),
                   bench::Fmt(median(phases.graph_ms), 3),
                   bench::Fmt(median(rest_ms), 3)});

  constexpr double kMinSpeedup = 10.0;
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "GATE FAILED: update/publish speedup %.1fx below the "
                 "%.0fx floor — incremental maintenance has regressed "
                 "toward a rebuild\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  std::printf("gate: >= %.0fx required — OK\n", kMinSpeedup);
  return 0;
}
