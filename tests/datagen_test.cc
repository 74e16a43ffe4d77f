#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "core/sample_search.h"
#include "datagen/movie_gen.h"
#include "storage/dump.h"
#include "datagen/pools.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "text/fulltext_engine.h"

namespace mweaver::datagen {
namespace {

// ------------------------------------------------------------------ Pools --

TEST(PoolsTest, GeneratorsProduceNonEmptyValues) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(MakePersonName(&rng).empty());
    EXPECT_FALSE(MakeMovieTitle(&rng).empty());
    EXPECT_FALSE(MakeCompanyName(&rng).empty());
    EXPECT_FALSE(MakeDate(&rng, 1990, 2000).empty());
  }
}

TEST(PoolsTest, SentenceEmbedsRequestedString) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const std::string s = MakeSentence(&rng, 8, "NEEDLE HERE");
    EXPECT_NE(s.find("NEEDLE HERE"), std::string::npos);
  }
}

TEST(PoolsTest, DatesWellFormed) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::string d = MakeDate(&rng, 1970, 2011);
    ASSERT_EQ(d.size(), 10u);
    EXPECT_EQ(d[4], '-');
    EXPECT_EQ(d[7], '-');
    const int year = std::stoi(d.substr(0, 4));
    EXPECT_GE(year, 1970);
    EXPECT_LE(year, 2011);
  }
}

// -------------------------------------------------------------- Yahoo gen --

TEST(YahooGenTest, MatchesPaperSchemaCounts) {
  YahooMoviesConfig config;
  config.num_movies = 30;
  const storage::Database db = MakeYahooMovies(config);
  EXPECT_EQ(db.num_relations(), 43u);
  EXPECT_EQ(db.TotalAttributes(), 131u);
  EXPECT_GT(db.TotalRows(), 0u);
}

TEST(YahooGenTest, ReferentialIntegrityHolds) {
  YahooMoviesConfig config;
  config.num_movies = 30;
  const storage::Database db = MakeYahooMovies(config);
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
}

TEST(YahooGenTest, DeterministicForSeed) {
  YahooMoviesConfig config;
  config.num_movies = 10;
  const storage::Database a = MakeYahooMovies(config);
  const storage::Database b = MakeYahooMovies(config);
  ASSERT_EQ(a.TotalRows(), b.TotalRows());
  const auto movie = a.FindRelation("movie");
  for (size_t r = 0; r < a.relation(movie).num_rows(); ++r) {
    EXPECT_EQ(a.relation(movie).at(r, 1), b.relation(movie).at(r, 1));
  }
}

TEST(YahooGenTest, LoglinesEmbedTitles) {
  YahooMoviesConfig config;
  config.num_movies = 40;
  const storage::Database db = MakeYahooMovies(config);
  const auto& movie = db.relation(db.FindRelation("movie"));
  size_t embedded = 0;
  for (size_t r = 0; r < movie.num_rows(); ++r) {
    const std::string_view title = movie.at(r, 1).AsString();
    const std::string_view logline = movie.at(r, 2).AsString();
    if (logline.find(title) != std::string_view::npos) ++embedded;
  }
  // ~80% of loglines embed the title (the paper's movie.logline ambiguity).
  EXPECT_GT(embedded, movie.num_rows() / 2);
}

// Every declared primary key is unique over the generated rows.
void ExpectPrimaryKeysUnique(const storage::Database& db) {
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const storage::Relation& rel =
        db.relation(static_cast<storage::RelationId>(r));
    const auto& pk = rel.schema().primary_key();
    ASSERT_FALSE(pk.empty()) << rel.name();
    std::set<std::vector<storage::Value>> keys;
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      std::vector<storage::Value> key;
      for (const storage::AttributeId a : pk) {
        key.push_back(rel.at(static_cast<storage::RowId>(row), a));
      }
      EXPECT_TRUE(keys.insert(std::move(key)).second)
          << rel.name() << " row " << row << " repeats a primary key";
    }
  }
}

// Many-to-many link tables repeat their first column (a movie has several
// keywords), so they are keyed by their (left, right) pair; entity tables
// by their id.
TEST(YahooGenTest, PrimaryKeysAreUnique) {
  YahooMoviesConfig config;
  config.num_movies = 60;
  const storage::Database db = MakeYahooMovies(config);
  ExpectPrimaryKeysUnique(db);
  const auto key_of = [&](const char* name) {
    return db.relation(db.FindRelation(name)).schema().primary_key();
  };
  EXPECT_EQ(key_of("movie"), std::vector<storage::AttributeId>{0});
  EXPECT_EQ(key_of("review"), std::vector<storage::AttributeId>{0});
  EXPECT_EQ(key_of("haskeyword"), (std::vector<storage::AttributeId>{0, 1}));
  EXPECT_EQ(key_of("act"), (std::vector<storage::AttributeId>{0, 1}));
}

// --------------------------------------------------------------- IMDb gen --

TEST(ImdbGenTest, MatchesPaperSchemaCounts) {
  ImdbConfig config;
  config.num_movies = 30;
  const storage::Database db = MakeImdb(config);
  EXPECT_EQ(db.num_relations(), 19u);
  EXPECT_EQ(db.TotalAttributes(), 57u);
}

TEST(ImdbGenTest, ReferentialIntegrityHolds) {
  ImdbConfig config;
  config.num_movies = 30;
  const storage::Database db = MakeImdb(config);
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
}

TEST(ImdbGenTest, PrimaryKeysAreUnique) {
  ImdbConfig config;
  config.num_movies = 60;
  ExpectPrimaryKeysUnique(MakeImdb(config));
}

TEST(ImdbGenTest, EveryMovieHasDirectorAndReleaseDate) {
  ImdbConfig config;
  config.num_movies = 20;
  const storage::Database db = MakeImdb(config);
  const auto& cast_info = db.relation(db.FindRelation("cast_info"));
  std::set<int64_t> movies_with_director;
  for (size_t r = 0; r < cast_info.num_rows(); ++r) {
    if (cast_info.at(r, 3).AsInt64() == 2) {  // role_type 'director'
      movies_with_director.insert(cast_info.at(r, 1).AsInt64());
    }
  }
  EXPECT_EQ(movies_with_director.size(), 20u);
}

// --------------------------------------------------------------- Workload --

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : db_(MakeYahooMovies(SmallConfig())),
        engine_(&db_, text::MatchPolicy::Substring()),
        graph_(&db_) {}

  static YahooMoviesConfig SmallConfig() {
    YahooMoviesConfig config;
    config.num_movies = 60;
    return config;
  }

  storage::Database db_;
  text::FullTextEngine engine_;
  graph::SchemaGraph graph_;
};

TEST_F(WorkloadTest, TaskSetsHaveExpectedShape) {
  auto sets = MakeYahooTaskSets(db_);
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  ASSERT_EQ(sets->size(), 3u);
  EXPECT_EQ((*sets)[0].joins, 2);
  EXPECT_EQ((*sets)[1].joins, 3);
  EXPECT_EQ((*sets)[2].joins, 4);
  for (const TaskSet& set : *sets) {
    ASSERT_EQ(set.tasks.size(), 4u);
    for (size_t i = 0; i < set.tasks.size(); ++i) {
      const TaskMapping& task = set.tasks[i];
      EXPECT_EQ(task.mapping.size(), i + 3);  // m = 3..6
      EXPECT_EQ(task.mapping.num_joins(), static_cast<size_t>(set.joins));
      EXPECT_EQ(task.column_names.size(), task.mapping.size());
      EXPECT_TRUE(task.mapping.TerminalsProjected());
    }
  }
}

TEST_F(WorkloadTest, TaskTargetsAreNonEmpty) {
  auto sets = MakeYahooTaskSets(db_);
  ASSERT_TRUE(sets.ok());
  query::PathExecutor executor(&engine_);
  for (const TaskSet& set : *sets) {
    for (const TaskMapping& task : set.tasks) {
      auto target = executor.EvaluateTarget(task.mapping, 50);
      ASSERT_TRUE(target.ok());
      EXPECT_FALSE(target->empty()) << task.name;
    }
  }
}

TEST_F(WorkloadTest, BuildChainMappingRejectsAmbiguousFk) {
  // Two FKs between the same relation pair make the chain step ambiguous.
  storage::Database db("flights");
  ASSERT_TRUE(db.AddRelation(storage::RelationSchema(
                                 "flight", {{"from_city",
                                             storage::ValueType::kInt64,
                                             false},
                                            {"to_city",
                                             storage::ValueType::kInt64,
                                             false}}))
                  .ok());
  ASSERT_TRUE(db.AddRelation(storage::RelationSchema(
                                 "city", {{"cid",
                                           storage::ValueType::kInt64,
                                           false},
                                          {"name",
                                           storage::ValueType::kString,
                                           true}}))
                  .ok());
  ASSERT_TRUE(db.AddForeignKey("flight", "from_city", "city", "cid").ok());
  ASSERT_TRUE(db.AddForeignKey("flight", "to_city", "city", "cid").ok());
  auto chain = BuildChainMapping(db, {"city", "flight"}, {{0, 0, "name"}});
  EXPECT_TRUE(chain.status().IsInvalidArgument());
}

TEST_F(WorkloadTest, YahooDumpRoundTripsThroughSerialization) {
  std::stringstream buffer;
  ASSERT_TRUE(storage::DumpDatabase(db_, &buffer).ok());
  auto loaded = storage::LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_relations(), 43u);
  EXPECT_EQ(loaded->TotalAttributes(), 131u);
  EXPECT_EQ(loaded->TotalRows(), db_.TotalRows());
  EXPECT_TRUE(loaded->CheckReferentialIntegrity().ok());

  // Sample search over the reloaded database behaves identically.
  const text::FullTextEngine engine(&*loaded,
                                    text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&*loaded);
  auto sets = MakeYahooTaskSets(*loaded);
  ASSERT_TRUE(sets.ok());
  query::PathExecutor executor(&engine);
  auto target = executor.EvaluateTarget((*sets)[0].tasks[0].mapping, 10);
  ASSERT_TRUE(target.ok());
  EXPECT_FALSE(target->empty());
}

TEST_F(WorkloadTest, BuildChainMappingValidatesInput) {
  EXPECT_TRUE(BuildChainMapping(db_, {}, {}).status().IsInvalidArgument());
  EXPECT_TRUE(
      BuildChainMapping(db_, {"nope"}, {}).status().IsNotFound());
  EXPECT_TRUE(BuildChainMapping(db_, {"movie", "person"}, {})
                  .status()
                  .IsNotFound());  // not adjacent
  // Unprojected terminals are rejected.
  EXPECT_TRUE(BuildChainMapping(db_, {"movie", "direct", "person"},
                                {{0, 0, "title"}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(WorkloadTest, SimulatedSessionDiscoversGoal) {
  auto sets = MakeYahooTaskSets(db_);
  ASSERT_TRUE(sets.ok());
  const TaskMapping& task = (*sets)[0].tasks[0];  // J=2, m=3
  SimulationOptions options;
  options.seed = 7;
  auto sim = SimulateUserSession(engine_, graph_, task, options);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_TRUE(sim->discovered);
  EXPECT_TRUE(sim->converged_to_goal);
  EXPECT_GE(sim->num_samples, task.mapping.size());
  EXPECT_EQ(sim->candidates_after_sample.size(), sim->num_samples);
  EXPECT_EQ(sim->typed_values.size(), sim->num_samples);
  EXPECT_GT(sim->target_rows, 0u);
}

TEST_F(WorkloadTest, SimulationDeterministicPerSeed) {
  auto sets = MakeYahooTaskSets(db_);
  ASSERT_TRUE(sets.ok());
  const TaskMapping& task = (*sets)[0].tasks[0];
  SimulationOptions options;
  options.seed = 3;
  auto a = SimulateUserSession(engine_, graph_, task, options);
  auto b = SimulateUserSession(engine_, graph_, task, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_samples, b->num_samples);
  EXPECT_EQ(a->typed_values, b->typed_values);
}

TEST(ImdbWorkloadTest, TaskSetsBuildAndHaveTargets) {
  ImdbConfig config;
  config.num_movies = 60;
  const storage::Database db = MakeImdb(config);
  auto sets = MakeImdbTaskSets(db);
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  ASSERT_EQ(sets->size(), 3u);
  EXPECT_EQ((*sets)[0].joins, 2);
  EXPECT_EQ((*sets)[1].joins, 3);
  EXPECT_EQ((*sets)[2].joins, 4);

  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  query::PathExecutor executor(&engine);
  for (const TaskSet& set : *sets) {
    for (const TaskMapping& task : set.tasks) {
      EXPECT_GE(task.mapping.size(), 3u);
      EXPECT_LE(task.mapping.size(), 6u);
      EXPECT_EQ(task.mapping.num_joins(), static_cast<size_t>(set.joins));
      EXPECT_TRUE(task.mapping.TerminalsProjected());
      auto target = executor.EvaluateTarget(task.mapping, 30);
      ASSERT_TRUE(target.ok());
      EXPECT_FALSE(target->empty()) << task.name;
    }
  }
}

TEST(ImdbWorkloadTest, SimulatedSessionDiscoversImdbGoal) {
  ImdbConfig config;
  config.num_movies = 60;
  const storage::Database db = MakeImdb(config);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  auto sets = MakeImdbTaskSets(db);
  ASSERT_TRUE(sets.ok());

  SimulationOptions options;
  options.seed = 17;
  auto sim = SimulateUserSession(engine, graph, (*sets)[1].tasks[0],
                                 options);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_TRUE(sim->discovered);
  EXPECT_TRUE(sim->converged_to_goal);
}

TEST_F(WorkloadTest, StudyTasksBuild) {
  auto yahoo = MakeYahooStudyTask(db_);
  ASSERT_TRUE(yahoo.ok()) << yahoo.status().ToString();
  EXPECT_EQ(yahoo->mapping.size(), 4u);
  EXPECT_EQ(yahoo->mapping.num_joins(), 4u);

  ImdbConfig imdb_config;
  imdb_config.num_movies = 30;
  const storage::Database imdb = MakeImdb(imdb_config);
  auto task = MakeImdbStudyTask(imdb);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->mapping.size(), 4u);
  EXPECT_EQ(task->mapping.num_joins(), 5u);  // Figure 11(b): six relations
  EXPECT_TRUE(task->mapping.TerminalsProjected());
}

}  // namespace
}  // namespace mweaver::datagen
