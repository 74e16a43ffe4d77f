// Cross-module property tests: TPW's soundness and completeness (Section
// 4.6), checked against the brute-force naive baseline on a controlled toy
// schema (where exhaustive enumeration stays small) and against known goal
// mappings on the synthetic Yahoo-Movies database.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "baselines/eirene.h"
#include "baselines/naive_search.h"
#include "common/random.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "storage/dump.h"
#include "test_util.h"
#include "text/fulltext_engine.h"

namespace mweaver {
namespace {

using ::mweaver::testing::AddRow;
using ::mweaver::testing::I;
using ::mweaver::testing::IdAttr;
using ::mweaver::testing::MakeUniversityDb;
using ::mweaver::testing::S;
using ::mweaver::testing::StrAttr;

// Shared-builder shorthands (tests/test_util.h).
std::string RandomValue(const storage::Database& db, Rng* rng) {
  return testing::RandomSearchableValue(db, rng);
}
std::set<std::string> CanonicalSet(
    const std::vector<core::CandidateMapping>& candidates) {
  return testing::CanonicalMappingSet(candidates);
}

// --------------------- TPW == Naive (sound + complete, Section 4.6) -------

// Parameterized over (target size m, random seed): random sample tuples of
// existing values over the university schema; the two algorithms must
// return exactly the same set of valid complete mapping paths.
class TpwVsNaiveTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TpwVsNaiveTest, SameValidMappingSetOnRandomTuples) {
  const auto [m, seed] = GetParam();
  const storage::Database db = MakeUniversityDb(100 + seed);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  Rng rng(9'000 + seed * 131 + m);

  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> sample_tuple;
    for (int i = 0; i < m; ++i) sample_tuple.push_back(RandomValue(db, &rng));

    auto tpw = core::SampleSearch(engine, graph, sample_tuple);
    ASSERT_TRUE(tpw.ok()) << tpw.status().ToString();

    baselines::NaiveOptions naive_options;
    naive_options.enumeration.max_candidates = 500'000;
    baselines::NaiveStats naive_stats;
    auto naive = baselines::NaiveSampleSearch(engine, graph, sample_tuple,
                                              naive_options, &naive_stats);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();

    std::set<std::string> naive_canon;
    for (const auto& mp : *naive) naive_canon.insert(mp.Canonical());
    EXPECT_EQ(CanonicalSet(tpw->candidates), naive_canon)
        << "m=" << m << " samples: " << sample_tuple[0] << " ...";
    EXPECT_GE(naive_stats.enumeration.num_candidates, naive->size());
    EXPECT_EQ(naive->size(), tpw->candidates.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTuples, TpwVsNaiveTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// One Yahoo-scale equivalence spot check (m=3; larger m is the naive
// blowup regime that bench_table3/bench_table4 demonstrate instead).
TEST(TpwVsNaiveYahooTest, AgreesAtM3) {
  datagen::YahooMoviesConfig config;
  config.num_movies = 25;
  config.num_locations = 10;
  const storage::Database db = datagen::MakeYahooMovies(config);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  const auto sets = datagen::MakeYahooTaskSets(db);
  ASSERT_TRUE(sets.ok());
  const auto& task = (*sets)[2].tasks[0];  // J=4, m=3

  query::PathExecutor executor(&engine);
  auto target = executor.EvaluateTarget(task.mapping, 100);
  ASSERT_TRUE(target.ok());
  ASSERT_FALSE(target->empty());

  auto tpw = core::SampleSearch(engine, graph, target->front());
  ASSERT_TRUE(tpw.ok());
  baselines::NaiveOptions naive_options;
  naive_options.enumeration.max_candidates = 500'000;
  auto naive = baselines::NaiveSampleSearch(engine, graph, target->front(),
                                            naive_options, nullptr);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  std::set<std::string> naive_canon;
  for (const auto& mp : *naive) naive_canon.insert(mp.Canonical());
  EXPECT_EQ(CanonicalSet(tpw->candidates), naive_canon);
}

// ----------------------------------------- Completeness w.r.t. the goal --

class GoalCompletenessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static const storage::Database& Db() {
    static const storage::Database& db = *new storage::Database(MakeDb());
    return db;
  }
  static storage::Database MakeDb() {
    datagen::YahooMoviesConfig config;
    config.num_movies = 40;
    config.num_locations = 12;
    return datagen::MakeYahooMovies(config);
  }
  static const text::FullTextEngine& Engine() {
    static const text::FullTextEngine& engine = *new text::FullTextEngine(
        &Db(), text::MatchPolicy::Substring());
    return engine;
  }
  static const graph::SchemaGraph& Graph() {
    static const graph::SchemaGraph& graph = *new graph::SchemaGraph(&Db());
    return graph;
  }
  static const std::vector<datagen::TaskSet>& TaskSets() {
    static const std::vector<datagen::TaskSet>& sets =
        *new std::vector<datagen::TaskSet>(
            datagen::MakeYahooTaskSets(Db()).ValueOrDie());
    return sets;
  }
};

TEST_P(GoalCompletenessTest, GoalAlwaysAmongCandidates) {
  const auto [set_index, task_index] = GetParam();
  const datagen::TaskMapping& task =
      TaskSets()[static_cast<size_t>(set_index)]
          .tasks[static_cast<size_t>(task_index)];
  const std::string goal = task.mapping.Canonical();

  query::PathExecutor executor(&Engine());
  auto target = executor.EvaluateTarget(task.mapping, 300);
  ASSERT_TRUE(target.ok());
  ASSERT_FALSE(target->empty());
  Rng rng(99 + set_index * 17 + task_index);
  for (int round = 0; round < 3; ++round) {
    const auto& row = rng.Pick(*target);
    auto tpw = core::SampleSearch(Engine(), Graph(), row);
    ASSERT_TRUE(tpw.ok());
    EXPECT_TRUE(CanonicalSet(tpw->candidates).count(goal))
        << "goal missing for a sample row of task " << task.name;
    // Soundness in the same pass: every candidate has support.
    query::SampleMap samples;
    for (size_t i = 0; i < row.size(); ++i) {
      samples.emplace(static_cast<int>(i), row[i]);
    }
    for (const auto& candidate : tpw->candidates) {
      auto supported = executor.HasSupport(candidate.mapping, samples);
      ASSERT_TRUE(supported.ok());
      EXPECT_TRUE(*supported) << candidate.mapping.ToString(Db());
      EXPECT_TRUE(candidate.mapping.TerminalsProjected());
      EXPECT_GT(candidate.support, 0u);
      // Every retained woven tuple path is instance-consistent.
      for (const core::TuplePath& tp : candidate.example_tuple_paths) {
        EXPECT_TRUE(tp.IsConsistent(Db())) << tp.ToString(Db());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTasks, GoalCompletenessTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "set" + std::to_string(std::get<0>(info.param) + 1) + "_m" +
             std::to_string(std::get<1>(info.param) + 3);
    });

// -------------------------------------------- Session-level convergence --

TEST(ConvergenceTest, SimulatedUsersReachTheGoalAcrossTaskSets) {
  datagen::YahooMoviesConfig config;
  config.num_movies = 40;
  config.num_locations = 12;
  const storage::Database db = datagen::MakeYahooMovies(config);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  const auto sets = datagen::MakeYahooTaskSets(db);
  ASSERT_TRUE(sets.ok());

  size_t discovered = 0, total = 0;
  for (const auto& set : *sets) {
    for (size_t t = 0; t < 2; ++t) {  // m = 3, 4 keeps the suite fast
      datagen::SimulationOptions options;
      options.seed = 1000 + total;
      // Generous budget: the paper's own worst case is ~8m samples.
      options.max_samples = 24 * set.tasks[t].mapping.size();
      auto sim = datagen::SimulateUserSession(engine, graph, set.tasks[t],
                                              options);
      ASSERT_TRUE(sim.ok()) << sim.status().ToString();
      ++total;
      if (sim->discovered) {
        ++discovered;
        EXPECT_TRUE(sim->converged_to_goal) << set.tasks[t].name;
        // The candidate count never increases after the first search.
        const auto& series = sim->candidates_after_sample;
        const size_t m = set.tasks[t].mapping.size();
        for (size_t i = m; i + 1 < series.size(); ++i) {
          EXPECT_LE(series[i + 1], series[i]);
        }
      }
    }
  }
  EXPECT_GE(discovered, total - 1);
}

// ----------------------------------------- Eirene fitting completeness --

// Property: an example assembled from a tuple path of mapping M always
// fits M (among possibly others) — Eirene's analogue of completeness.
TEST(EireneFittingPropertyTest, GoalAlwaysFitsItsOwnExamples) {
  const storage::Database db = MakeUniversityDb(21);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  query::PathExecutor executor(&engine);
  baselines::EireneFitter fitter(&db);

  const std::vector<std::vector<std::string>> chains{
      {"prof", "teaches", "course"},
      {"prof", "worksin", "dept"},
      {"dept", "offers", "course"},
  };
  const std::vector<std::vector<std::tuple<int, int, std::string>>> projs{
      {{0, 0, "name"}, {1, 2, "title"}},
      {{0, 0, "name"}, {1, 2, "name"}},
      {{0, 0, "name"}, {1, 2, "title"}},
  };
  for (size_t i = 0; i < chains.size(); ++i) {
    auto goal = datagen::BuildChainMapping(db, chains[i], projs[i]);
    ASSERT_TRUE(goal.ok()) << goal.status().ToString();
    query::ExecOptions exec_options;
    exec_options.max_results = 5;
    auto paths = executor.Execute(*goal, {}, exec_options);
    ASSERT_TRUE(paths.ok());
    for (const core::TuplePath& tp : *paths) {
      baselines::DataExample example;
      std::set<std::pair<storage::RelationId, storage::RowId>> seen;
      for (size_t v = 0; v < tp.num_vertices(); ++v) {
        const auto key = std::make_pair(
            tp.vertex(static_cast<core::VertexId>(v)).relation,
            tp.row(static_cast<core::VertexId>(v)));
        if (seen.insert(key).second) example.source_tuples.push_back(key);
      }
      example.target_tuple = tp.ProjectTargetValues(db);
      auto fitted = fitter.FitOne(example);
      ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
      std::set<std::string> canon;
      for (const auto& mp : *fitted) canon.insert(mp.Canonical());
      EXPECT_TRUE(canon.count(goal->Canonical()))
          << "chain " << i << ": goal missing from fit";
    }
  }
}

// -------------------------------- Executor vs brute force, randomized --

namespace {

// Nested-loop reference: all consistent (IsConsistent) assignments whose
// constrained cells contain the samples.
std::set<std::string> BruteForce(const text::FullTextEngine& engine,
                                 const core::MappingPath& mapping,
                                 const query::SampleMap& samples) {
  const storage::Database& db = engine.db();
  const size_t n = mapping.num_vertices();
  std::vector<storage::RowId> rows(n, 0);
  std::set<std::string> out;
  std::function<void(size_t)> rec = [&](size_t v) {
    if (v == n) {
      core::TuplePath tp = core::TuplePath::SingleVertex(
          mapping.vertex(0).relation, rows[0]);
      for (size_t i = 1; i < n; ++i) {
        const core::PathVertex& pv =
            mapping.vertex(static_cast<core::VertexId>(i));
        tp.AddVertex(pv.relation, rows[i], pv.parent, pv.fk_to_parent,
                     pv.is_from_side);
      }
      for (const core::Projection& p : mapping.projections()) {
        tp.AddProjection(p.target_column, p.vertex, p.attribute, 1.0);
      }
      if (!tp.IsConsistent(db)) return;
      for (const core::Projection& p : mapping.projections()) {
        auto it = samples.find(p.target_column);
        if (it == samples.end()) continue;
        if (!engine.RowContains(
                text::AttributeRef{mapping.vertex(p.vertex).relation,
                                   p.attribute},
                rows[static_cast<size_t>(p.vertex)], it->second)) {
          return;
        }
      }
      out.insert(tp.Canonical());
      return;
    }
    const storage::Relation& rel =
        db.relation(mapping.vertex(static_cast<core::VertexId>(v)).relation);
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      rows[v] = static_cast<storage::RowId>(r);
      rec(v + 1);
    }
  };
  rec(0);
  return out;
}

}  // namespace

class ExecutorFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorFuzzTest, AgreesWithBruteForceOnRandomChains) {
  const storage::Database db = MakeUniversityDb(200 + GetParam(),
                                                /*people=*/8);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  query::PathExecutor executor(&engine);
  Rng rng(900 + GetParam());

  const std::vector<std::vector<std::string>> chains{
      {"prof", "teaches", "course"},
      {"course", "teaches", "prof", "worksin", "dept"},
      {"dept", "offers", "course", "teaches", "prof"},
  };
  const std::vector<std::vector<std::tuple<int, int, std::string>>> projs{
      {{0, 0, "name"}, {1, 2, "title"}},
      {{0, 0, "title"}, {1, 2, "name"}, {2, 4, "name"}},
      {{0, 0, "name"}, {1, 2, "title"}, {2, 4, "name"}},
  };
  for (size_t i = 0; i < chains.size(); ++i) {
    auto mapping = datagen::BuildChainMapping(db, chains[i], projs[i]);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    // Random constraint subsets, including none.
    for (int round = 0; round < 3; ++round) {
      query::SampleMap samples;
      for (int col = 0; col < static_cast<int>(mapping->size()); ++col) {
        if (rng.Bernoulli(0.5)) {
          samples.emplace(col, RandomValue(db, &rng));
        }
      }
      const auto expected = BruteForce(engine, *mapping, samples);
      auto actual = executor.Execute(*mapping, samples);
      ASSERT_TRUE(actual.ok());
      std::set<std::string> got;
      for (const auto& tp : *actual) got.insert(tp.Canonical());
      EXPECT_EQ(got, expected) << "chain " << i << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzTest, ::testing::Range(0, 4));

// -------------------------------------------- Serialization round trip --

TEST(DumpSearchTest, SearchResultsIdenticalAfterDumpReload) {
  const storage::Database original = MakeUniversityDb(31);
  std::stringstream buffer;
  ASSERT_TRUE(storage::DumpDatabase(original, &buffer).ok());
  auto reloaded = storage::LoadDatabase(&buffer);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  const text::FullTextEngine engine_a(&original,
                                      text::MatchPolicy::Substring());
  const text::FullTextEngine engine_b(&*reloaded,
                                      text::MatchPolicy::Substring());
  const graph::SchemaGraph graph_a(&original);
  const graph::SchemaGraph graph_b(&*reloaded);

  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::string> sample_tuple;
    for (int i = 0; i < 3; ++i) {
      sample_tuple.push_back(RandomValue(original, &rng));
    }
    auto a = core::SampleSearch(engine_a, graph_a, sample_tuple);
    auto b = core::SampleSearch(engine_b, graph_b, sample_tuple);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(CanonicalSet(a->candidates), CanonicalSet(b->candidates));
  }
}

// ------------------------------------------------- Numeric-sample search --

TEST(NumericSearchTest, NumericSampleDrivesMappingDiscovery) {
  // Payroll schema with searchable numeric columns: the user types a salary
  // as a sample (§7's numeric-sample extension).
  storage::Database db("payroll");
  db.AddRelation(storage::RelationSchema(
                     "employee",
                     {IdAttr("eid"), StrAttr("name"),
                      storage::AttributeSchema{
                          "salary", storage::ValueType::kDouble, true}}))
      .ValueOrDie();
  db.AddRelation(storage::RelationSchema(
                     "dept", {IdAttr("did"), StrAttr("dname")}))
      .ValueOrDie();
  db.AddRelation(storage::RelationSchema(
                     "worksin", {IdAttr("eid"), IdAttr("did")}))
      .ValueOrDie();
  db.AddForeignKey("worksin", "eid", "employee", "eid").ValueOrDie();
  db.AddForeignKey("worksin", "did", "dept", "did").ValueOrDie();
  AddRow(&db, "employee", {I(0), S("Ada"), storage::Value(95000.0)});
  AddRow(&db, "employee", {I(1), S("Grace"), storage::Value(120000.0)});
  AddRow(&db, "dept", {I(0), S("Compilers")});
  AddRow(&db, "dept", {I(1), S("Systems")});
  AddRow(&db, "worksin", {I(0), I(0)});
  AddRow(&db, "worksin", {I(1), I(1)});

  const text::FullTextEngine engine(
      &db, text::MatchPolicy::Substring().WithNumeric());
  const graph::SchemaGraph graph(&db);

  // Target: (dept name, salary). The salary sample is numeric.
  auto tpw = core::SampleSearch(engine, graph, {"Compilers", "95000"});
  ASSERT_TRUE(tpw.ok()) << tpw.status().ToString();
  ASSERT_EQ(tpw->candidates.size(), 1u);
  const std::string str = tpw->candidates[0].mapping.ToString(db);
  EXPECT_NE(str.find("salary"), std::string::npos);
  EXPECT_NE(str.find("dname"), std::string::npos);

  // Wrong pairing finds nothing: Grace's salary is in Systems.
  auto none = core::SampleSearch(engine, graph, {"Compilers", "120000"});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->candidates.empty());
}

// ----------------------------------------------------- MatchPolicy sweep --

class PolicySweepTest : public ::testing::TestWithParam<text::MatchPolicy> {};

TEST_P(PolicySweepTest, GoalDiscoverableUnderEveryErrorModel) {
  const storage::Database db = MakeUniversityDb(7);
  const text::FullTextEngine engine(&db, GetParam());
  const graph::SchemaGraph graph(&db);

  // Goal: prof.name x course.title via teaches.
  auto goal = datagen::BuildChainMapping(
      db, {"prof", "teaches", "course"}, {{0, 0, "name"}, {1, 2, "title"}});
  ASSERT_TRUE(goal.ok());
  query::PathExecutor executor(&engine);
  auto target = executor.EvaluateTarget(*goal, 50);
  ASSERT_TRUE(target.ok());
  ASSERT_FALSE(target->empty());

  auto tpw = core::SampleSearch(engine, graph, target->front());
  ASSERT_TRUE(tpw.ok());
  EXPECT_TRUE(CanonicalSet(tpw->candidates).count(goal->Canonical()));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweepTest,
    ::testing::Values(text::MatchPolicy::Exact(),
                      text::MatchPolicy::Substring(),
                      text::MatchPolicy::TokenSubset(),
                      text::MatchPolicy::Fuzzy(1)),
    [](const ::testing::TestParamInfo<text::MatchPolicy>& info) {
      switch (info.param.mode) {
        case text::MatchMode::kExact:
          return std::string("exact");
        case text::MatchMode::kEqualsIgnoreCase:
          return std::string("nocase");
        case text::MatchMode::kSubstring:
          return std::string("substring");
        case text::MatchMode::kTokenSubset:
          return std::string("tokens");
        case text::MatchMode::kFuzzyTokenSubset:
          return std::string("fuzzy");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace mweaver
