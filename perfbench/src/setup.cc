#include "setup.h"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

#include "common.h"
#include "common/logging.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "workload/replay.h"

namespace mweaver::perfbench {

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fisher-Yates with an explicit 64-bit generator, so a seed names the same
// order on every platform.
template <typename T>
void Shuffle(std::vector<T>* items, std::mt19937_64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[(*rng)() % i]);
  }
}

uint64_t Mix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

// Every sample a session may type beyond the first row is capped like the
// simulated user of Section 6.2: at most 20 * m samples in all.
constexpr size_t kMaxSamplesPerColumn = 20;

SessionPlan MakePlan(const Task& task, uint32_t task_index, uint32_t first_row,
                     std::mt19937_64* rng) {
  SessionPlan plan;
  plan.task = task_index;
  const auto m = static_cast<uint32_t>(task.columns.size());
  for (uint32_t col = 0; col < m; ++col) {
    plan.keys.push_back(Keystroke{0, col, first_row});
  }
  plan.search_key = m - 1;
  std::vector<uint32_t> others;
  for (uint32_t r = 0; r < task.rows.size(); ++r) {
    if (r != first_row) others.push_back(r);
  }
  Shuffle(&others, rng);
  others.resize(std::min(others.size(), kMaxSamplesPerColumn - 1));
  std::vector<uint32_t> order(m);
  for (uint32_t c = 0; c < m; ++c) order[c] = c;
  for (size_t k = 0; k < others.size(); ++k) {
    Shuffle(&order, rng);
    for (uint32_t col : order) {
      plan.keys.push_back(
          Keystroke{static_cast<uint32_t>(k + 1), col, others[k]});
    }
  }
  return plan;
}

std::unique_ptr<catalog::Catalog> NewCatalog(uint32_t shards) {
  catalog::CatalogOptions options;
  options.shard_count = shards;
  return std::make_unique<catalog::Catalog>(options);
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadConfig* config) {
  const size_t cores =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  WorkloadConfig c;
  c.name = name;
  if (name == "cold-search") {
    c.kind = WorkloadKind::kColdSearch;
    c.workers = std::min<size_t>(3, cores - c.client_threads);
    c.in_flight = c.workers;  // a search never waits in the queue
    c.sessions_per_round = 1200;
    c.rounds_per_10s = 3;  // ~3.5 s a round on a 4-vCPU VM
  } else if (name == "hot-sessions") {
    c.kind = WorkloadKind::kHotSessions;
    c.workers = std::min<size_t>(3, cores - c.client_threads);
    // The queue is never empty: workers never idle between keystrokes.
    c.in_flight = 16;
    c.hot_repeats = 40;
    c.rounds_per_10s = 170;  // ~55 ms a round
  } else if (name == "update-churn" || name == "sharded-churn") {
    // The same reads and writes on 1 shard, or on 8 (shard fan-out and
    // merge, shard-scoped delta clones and republishes).
    c.kind = WorkloadKind::kChurn;
    c.shards = name == "sharded-churn" ? 8 : 1;
    c.client_threads = 2;  // session generator + writer
    c.workers = std::max<size_t>(1, std::min<size_t>(2, cores - 2));
    c.in_flight = c.workers;
    c.sessions_per_round = 240;
    c.sessions_per_update = 8;
    c.updates_per_publish = 8;
    c.rounds_per_10s = c.shards == 1 ? 7 : 4;  // ~1.3 s / ~2.4 s a round
  } else {
    return false;
  }
  *config = c;
  return true;
}

std::unique_ptr<catalog::Catalog> PublishCopy(const storage::Database& source,
                                              uint32_t shards) {
  auto catalog = NewCatalog(shards);
  auto published = catalog->Publish(kTenant, source.Clone());
  MW_CHECK(published.ok()) << published.status().ToString();
  return catalog;
}

Environment BuildEnvironment(const WorkloadConfig& config, uint64_t seed) {
  Environment env;

  Clock::time_point start = Clock::now();
  datagen::YahooMoviesConfig gen;
  gen.num_movies = config.movies;  // fixed source: the seed drives inputs only
  env.source = datagen::MakeYahooMovies(gen);
  env.times.datagen_s = SecondsSince(start);

  start = Clock::now();
  env.catalog = PublishCopy(env.source, config.shards);
  env.times.publish_s = SecondsSince(start);

  start = Clock::now();
  auto pinned = env.catalog->Pin(kTenant);
  MW_CHECK(pinned.ok());
  const catalog::Snapshot& snapshot = **pinned;
  auto task_sets = datagen::MakeYahooTaskSets(snapshot.db());
  MW_CHECK(task_sets.ok()) << task_sets.status().ToString();
  for (const datagen::TaskSet& set : *task_sets) {
    for (const datagen::TaskMapping& mapping : set.tasks) {
      // One task per call keeps each script paired with its goal mapping.
      const std::vector<datagen::TaskSet> single = {
          datagen::TaskSet{set.joins, {mapping}}};
      auto scripts = workload::BuildReplayScripts(snapshot.engine(), single,
                                                  /*max_rows=*/200);
      if (scripts.empty() || scripts.front().rows.size() < 2) continue;
      env.tasks.push_back(Task{mapping.name, mapping.mapping.Canonical(),
                               std::move(scripts.front().column_names),
                               std::move(scripts.front().rows)});
    }
  }
  MW_CHECK(!env.tasks.empty());

  std::mt19937_64 rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> first_rows;  // (task, row)
  if (config.kind == WorkloadKind::kHotSessions) {
    // One first row per task (12 cache keys), each typed hot_repeats times.
    for (size_t r = 0; r < config.hot_repeats; ++r) {
      for (uint32_t t = 0; t < env.tasks.size(); ++t) {
        first_rows.emplace_back(t, 0);
      }
    }
    env.distinct_first_rows = env.tasks.size();
  } else {
    // Distinct goal-target rows, without replacement: all of them, or a
    // fixed every-stride-th subset when the round is capped, so every seed
    // draws the same rows (the seed orders them and picks the samples).
    size_t pool = 0;
    for (const Task& task : env.tasks) pool += task.rows.size();
    const size_t stride =
        config.sessions_per_round > 0
            ? (pool + config.sessions_per_round - 1) / config.sessions_per_round
            : 1;
    for (uint32_t t = 0; t < env.tasks.size(); ++t) {
      for (uint32_t r = 0; r < env.tasks[t].rows.size(); r += stride) {
        first_rows.emplace_back(t, r);
      }
    }
    env.distinct_first_rows = first_rows.size();
  }
  Shuffle(&first_rows, &rng);
  uint64_t fingerprint = seed;
  for (const auto& [task, row] : first_rows) {
    env.plans.push_back(MakePlan(env.tasks[task], task, row, &rng));
    for (const Keystroke& key : env.plans.back().keys) {
      fingerprint = Mix(fingerprint, (uint64_t{task} << 48) ^
                                         (uint64_t{key.grid_row} << 32) ^
                                         (uint64_t{key.col} << 24) ^
                                         key.task_row);
    }
  }

  if (config.kind == WorkloadKind::kChurn) {
    // Insert rows for one round's worth of insert/delete batch pairs. Only
    // relations with a single integer primary key qualify: each copy gets
    // a key above the relation's largest, so an update never duplicates a
    // key that foreign keys point at.
    const storage::Database& db = snapshot.db();
    struct Keyed {
      storage::RelationId id;
      storage::AttributeId key;
      int64_t next_key;
    };
    std::vector<Keyed> keyed;
    for (size_t r = 0; r < db.num_relations(); ++r) {
      const auto id = static_cast<storage::RelationId>(r);
      const storage::Relation& relation = db.relation(id);
      const auto& pk = relation.schema().primary_key();
      if (pk.size() != 1 || relation.num_live_rows() == 0 ||
          relation.schema().attribute(pk[0]).type !=
              storage::ValueType::kInt64) {
        continue;
      }
      int64_t max_key = 0;
      for (size_t row = 0; row < relation.num_rows(); ++row) {
        const storage::Value& v =
            relation.row(static_cast<storage::RowId>(row))[pk[0]];
        if (!v.is_null()) max_key = std::max(max_key, v.AsInt64());
      }
      keyed.push_back(Keyed{id, pk[0], max_key + 1});
    }
    MW_CHECK(!keyed.empty());
    const size_t batches = env.plans.size() / config.sessions_per_update;
    for (size_t b = 0; b < (batches + 1) / 2; ++b) {
      std::vector<UpdateRow> rows;
      std::vector<int64_t> used(keyed.size(), 0);
      while (rows.size() < config.rows_per_update) {
        const size_t k = rng() % keyed.size();
        const storage::Relation& relation = db.relation(keyed[k].id);
        const auto row =
            static_cast<storage::RowId>(rng() % relation.num_rows());
        if (relation.is_deleted(row)) continue;
        storage::Row copy = relation.row(row);
        copy[keyed[k].key] = storage::Value(keyed[k].next_key + used[k]++);
        rows.push_back(UpdateRow{relation.name(), std::move(copy)});
        fingerprint = Mix(fingerprint, (uint64_t(keyed[k].id) << 32) ^
                                           uint64_t(row));
      }
      env.update_rows.push_back(std::move(rows));
    }
  }
  env.input_fingerprint = fingerprint;
  env.times.inputs_s = SecondsSince(start);
  return env;
}

}  // namespace mweaver::perfbench
