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
// regression that silently turns updates back into rebuilds.
//
// A second section measures intra-tenant sharding: at 8 row-hash shards,
// a republish whose changes land in one shard must reuse the other seven
// (content fingerprints carry them over) and come in at least 4x cheaper
// than a publish that rebuilds all eight. That gate holds the
// shard-scoped-publish promise the same way the 10x gate holds the
// streaming-update promise. Whether that ratio holds depends on the host as
// well as on the program, so the section also prints where each kind of
// publish spends its time (fingerprinting, shard builds, schema graph) and
// the shared pool's size; that breakdown is diagnostic, not gated.
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

// Wall time of each step Catalog::Publish takes, in its order.
struct PublishPhases {
  std::vector<double> fingerprint_ms, build_ms, graph_ms;
};

// Replays Catalog::Publish's steps on `db` with each one timed: the
// per-shard content fingerprints, the engine build (sharing the shards of
// `previous` whose fingerprints in `previous_fps` still match), and the
// schema graph.
void TimePublishPhases(const storage::Database& db, uint32_t shards,
                       const text::FullTextEngine* previous,
                       const std::vector<uint64_t>& previous_fps,
                       PublishPhases* phases) {
  auto start = bench::BenchClock::now();
  const std::vector<uint64_t> fps =
      catalog::ComputeShardFingerprints(db, shards);
  phases->fingerprint_ms.push_back(MsSince(start));
  std::vector<bool> reuse(shards, false);
  for (uint32_t s = 0; s < shards && s < previous_fps.size(); ++s) {
    reuse[s] = previous != nullptr && previous_fps[s] == fps[s];
  }
  start = bench::BenchClock::now();
  const std::unique_ptr<text::FullTextEngine> engine =
      text::FullTextEngine::Build(&db, text::MatchPolicy::Substring(), shards,
                                  {}, previous, reuse);
  phases->build_ms.push_back(MsSince(start));
  start = bench::BenchClock::now();
  const graph::SchemaGraph graph(&db);
  phases->graph_ms.push_back(MsSince(start));
}

}  // namespace

int main() {
  constexpr std::string_view kTenant = "bench";
  const size_t movies = bench::EnvSize("MWEAVER_BENCH_MOVIES", 2000);
  const size_t publish_reps = bench::EnvSize("MWEAVER_BENCH_REPS", 5);
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
  for (const storage::Row& row : movie.rows()) {
    next_movie_key = std::max(next_movie_key, row[0].AsInt64() + 1);
  }
  const auto movie_copy = [&](size_t index) {
    storage::Row row = movie.row(static_cast<storage::RowId>(index));
    row[0] = storage::Value(next_movie_key++);
    return row;
  };

  // (a) Full publishes: every rep republishes the source plus one new movie
  // row, so its content differs from the serving snapshot's and the whole
  // index bundle is rebuilt (identical content would be carried over).
  std::vector<double> publish_ms;
  publish_ms.reserve(publish_reps);
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    storage::Database next = source.CloneCow({movie_rel});
    next.mutable_relation(movie_rel)->AppendUnchecked(
        movie_copy(rep % movie.num_rows()));
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

  // === shard-scoped publishes ===
  // At 8 shards, a full-tenant publish (fresh tenant, no prior snapshot to
  // reuse) builds all 8 shards; a republish whose changes land in a
  // single shard must fingerprint-match the other 7 and carry them over.
  constexpr uint32_t kShards = 8;
  catalog::CatalogOptions sharded_options;
  sharded_options.shard_count = kShards;
  catalog::Catalog sharded(sharded_options);

  std::printf("\n=== shard-scoped publish (%u shards) ===\n", kShards);

  // (a) Full-tenant rebuilds: every rep publishes to a fresh tenant, so no
  // shard can be reused and all 8 are built from scratch.
  std::vector<double> full_shard_ms;
  full_shard_ms.reserve(publish_reps);
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    const std::string tenant = "full-" + std::to_string(rep);
    const auto start = bench::BenchClock::now();
    auto published = sharded.Publish(tenant, source.CloneCow({}));
    const auto end = bench::BenchClock::now();
    if (!published.ok()) {
      std::fprintf(stderr, "sharded publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    full_shard_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }

  // (b) Single-shard republishes: each rep appends one distinct movie row
  // to a fresh clone of the source. The appended physical row id is the
  // same every rep, so rep over rep exactly one shard's content
  // fingerprint changes — the publish rebuilds that shard and reuses the
  // other seven.
  if (auto published = sharded.Publish(kTenant, source.CloneCow({}));
      !published.ok()) {
    std::fprintf(stderr, "sharded seed publish failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  std::vector<double> single_shard_ms;
  single_shard_ms.reserve(publish_reps);
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    storage::Database next = source.Clone();
    next.mutable_relation(next.FindRelation("movie"))
        ->AppendUnchecked(
            movie.row(static_cast<storage::RowId>(rep % movie.num_rows())));
    const auto start = bench::BenchClock::now();
    auto published = sharded.Publish(kTenant, std::move(next));
    const auto end = bench::BenchClock::now();
    if (!published.ok()) {
      std::fprintf(stderr, "single-shard republish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    single_shard_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }

  // The reuse accounting must confirm the timing story: the last republish
  // may rebuild only the one poisoned shard.
  uint64_t rebuilt_last = 0;
  for (const catalog::TenantInfo& info : sharded.ListTenants()) {
    if (info.name == kTenant) rebuilt_last = info.shards_rebuilt_last;
  }
  if (rebuilt_last != 1) {
    std::fprintf(stderr,
                 "GATE FAILED: single-shard republish rebuilt %llu shards "
                 "(expected 1) — fingerprint reuse has regressed\n",
                 static_cast<unsigned long long>(rebuilt_last));
    return 1;
  }

  const double full_shard_mean = mean(full_shard_ms);
  const double single_shard_mean = mean(single_shard_ms);
  const double shard_speedup = full_shard_mean / single_shard_mean;
  bench::PrintRow("", {"mean ms", "median ms", "reps"});
  bench::PrintRow("full publish (8 shards)",
                  {bench::Fmt(full_shard_mean, 3),
                   bench::Fmt(median(full_shard_ms), 3),
                   std::to_string(publish_reps)});
  bench::PrintRow("1-shard republish",
                  {bench::Fmt(single_shard_mean, 3),
                   bench::Fmt(median(single_shard_ms), 3),
                   std::to_string(publish_reps)});
  std::printf("\nsingle-shard republish is %.1fx cheaper than a full "
              "8-shard publish (rebuilt %llu/%u shards)\n",
              shard_speedup, static_cast<unsigned long long>(rebuilt_last),
              kShards);

  // Where the two kinds of publish spend their time, for reading the gate
  // below on a new host: the same inputs, with Publish's steps timed apart.
  PublishPhases full_phases;
  PublishPhases single_phases;
  const std::vector<uint64_t> source_fps =
      catalog::ComputeShardFingerprints(source, kShards);
  const text::FullTextEngine source_engine(
      &source, text::MatchPolicy::Substring(), kShards);
  for (size_t rep = 0; rep < publish_reps; ++rep) {
    TimePublishPhases(source, kShards, nullptr, {}, &full_phases);
    storage::Database next = source.Clone();
    next.mutable_relation(next.FindRelation("movie"))
        ->AppendUnchecked(
            movie.row(static_cast<storage::RowId>(rep % movie.num_rows())));
    TimePublishPhases(next, kShards, &source_engine, source_fps,
                      &single_phases);
  }
  // "rest" is the timed Publish's median minus the replayed phases: what
  // the replay does not repeat (taking over the database, the install,
  // freeing a replaced snapshot) plus any allocator-state difference.
  const auto phase_row = [&](const char* label, const PublishPhases& p,
                             const std::vector<double>& publish) {
    const double fingerprint = median(p.fingerprint_ms);
    const double build = median(p.build_ms);
    const double graph = median(p.graph_ms);
    bench::PrintRow(label, {bench::Fmt(fingerprint, 3), bench::Fmt(build, 3),
                            bench::Fmt(graph, 3),
                            bench::Fmt(median(publish) - fingerprint - build -
                                           graph,
                                       3)});
  };
  std::printf("\npublish phases, median ms (shared pool: %zu threads)\n",
              ThreadPool::Shared().num_threads());
  bench::PrintRow("", {"fingerprint", "build", "graph", "rest"});
  phase_row("full publish (8 shards)", full_phases, full_shard_ms);
  phase_row("1-shard republish", single_phases, single_shard_ms);

  constexpr double kMinShardSpeedup = 4.0;
  if (shard_speedup < kMinShardSpeedup) {
    std::fprintf(stderr,
                 "GATE FAILED: shard-scoped publish speedup %.1fx below "
                 "the %.0fx floor — shard reuse has regressed toward a "
                 "full rebuild\n",
                 shard_speedup, kMinShardSpeedup);
    return 1;
  }
  std::printf("gate: >= %.0fx required — OK\n", kMinShardSpeedup);

  // (c) Sharded update batches, for the record: the writer delta-clones
  // only the shards owning the batch's rows.
  catalog::TenantWriter sharded_writer(&sharded);
  uint64_t shards_touched_total = 0;
  std::vector<double> sharded_update_ms;
  sharded_update_ms.reserve(update_reps);
  for (size_t rep = 0; rep < update_reps; ++rep) {
    catalog::UpdateBatch batch;
    batch.inserts.push_back(catalog::RowInsert{"movie", fresh_movie()});
    const auto start = bench::BenchClock::now();
    auto applied = sharded_writer.Apply(kTenant, batch);
    const auto end = bench::BenchClock::now();
    if (!applied.ok()) {
      std::fprintf(stderr, "sharded update failed: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    shards_touched_total += applied->shards_touched;
    sharded_update_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::printf("\nsharded update batch: %.3f ms mean, %.2f shards touched "
              "per batch (of %u)\n",
              mean(sharded_update_ms),
              static_cast<double>(shards_touched_total) /
                  static_cast<double>(update_reps),
              kShards);
  return 0;
}
