// Tests for the TPW pipeline: location map, pairwise generation, weaving,
// ranking, sample search, pruning, and the interactive session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>

#include "common/string_util.h"
#include "core/execution_context.h"
#include "core/location_map.h"
#include "core/pairwise.h"
#include "core/pruning.h"
#include "core/ranking.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "core/suggest.h"
#include "core/weaver.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "reference_weave.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "workload/replay.h"

namespace mweaver::core {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using storage::Database;

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : db_(MakeFigure2Db()),
        engine_(&db_, text::MatchPolicy::Substring()),
        graph_(&db_),
        executor_(&engine_) {}

  // Runs sample search with default options.
  SearchResult Search(const std::vector<std::string>& samples) {
    auto result = SampleSearch(engine_, graph_, samples);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  // Pairwise generation with just a PMNJ bound (fresh context, no deadline).
  PairwiseMappingMap GenPairwise(const LocationMap& map, int pmnj) {
    SearchOptions options;
    options.pmnj = pmnj;
    ExecutionContext ctx;
    return GeneratePairwiseMappingPaths(graph_, map, options, ctx);
  }

  Database db_;
  text::FullTextEngine engine_;
  graph::SchemaGraph graph_;
  query::PathExecutor executor_;
  ExecutionContext ctx_;
};

// ------------------------------------------------------------ LocationMap --

TEST_F(CoreTest, LocationMapFindsAttributes) {
  const LocationMap map =
      LocationMap::Build(engine_, {"Avatar", "James Cameron"});
  ASSERT_EQ(map.num_columns(), 2u);
  ASSERT_EQ(map.AttributesOf(0).size(), 1u);
  EXPECT_EQ(engine_.AttributeName(map.AttributesOf(0)[0]), "movie.title");
  EXPECT_EQ(engine_.AttributeName(map.AttributesOf(1)[0]), "person.name");
  EXPECT_TRUE(map.Contains(0, map.AttributesOf(0)[0]));
  EXPECT_FALSE(map.Contains(1, map.AttributesOf(0)[0]));
  EXPECT_EQ(map.TotalOccurrences(), 2u);
}

TEST_F(CoreTest, LocationMapEmptySampleHasNoOccurrences) {
  const LocationMap map = LocationMap::Build(engine_, {"", "Avatar"});
  EXPECT_TRUE(map.AttributesOf(0).empty());
  EXPECT_EQ(map.AttributesOf(1).size(), 1u);
}

// --------------------------------------------------------------- Pairwise --

TEST_F(CoreTest, PairwiseGenerationFindsBothJoinPaths) {
  const LocationMap map =
      LocationMap::Build(engine_, {"Avatar", "James Cameron"});
  const PairwiseMappingMap pmpm = GenPairwise(map, /*pmnj=*/2);
  ASSERT_EQ(pmpm.size(), 1u);
  const auto& paths = pmpm.at({0, 1});
  // movie-director-person and movie-writer-person.
  EXPECT_EQ(paths.size(), 2u);
  for (const MappingPath& p : paths) {
    EXPECT_EQ(p.num_joins(), 2u);
    EXPECT_TRUE(p.TerminalsProjected());
  }
}

TEST_F(CoreTest, PairwiseRespectsPmnj) {
  const LocationMap map =
      LocationMap::Build(engine_, {"Avatar", "James Cameron"});
  // movie and person are 2 joins apart: PMNJ=1 must find nothing.
  EXPECT_TRUE(GenPairwise(map, 1).empty());
  // Larger PMNJ finds more (longer, loopier) paths as well.
  const auto wide = GenPairwise(map, 4);
  EXPECT_GT(wide.at({0, 1}).size(), 2u);
}

TEST_F(CoreTest, PairwiseTuplePathsPruneUnsupportedMappings) {
  const LocationMap map =
      LocationMap::Build(engine_, {"Harry Potter", "David Yates"});
  const PairwiseMappingMap pmpm = GenPairwise(map, 2);
  ASSERT_EQ(pmpm.at({0, 1}).size(), 2u);

  SearchOptions options;
  PairwiseStats stats;
  auto ptpm =
      CreatePairwiseTuplePaths(executor_, pmpm, map, options, ctx_, &stats);
  ASSERT_TRUE(ptpm.ok());
  EXPECT_EQ(stats.num_mappings, 2u);
  // Yates directed Harry Potter but did not write it: only the director
  // mapping survives.
  EXPECT_EQ(stats.num_valid_mappings, 1u);
  EXPECT_EQ(ptpm->at({0, 1}).size(), 1u);
}

// ----------------------------------------------------------------- Weaver --

TEST_F(CoreTest, WeaverBuildsCompletePathsAcrossThreeColumns) {
  // Columns: title, director name, writer name. For Avatar, Cameron is
  // both, so complete paths exist.
  const LocationMap map = LocationMap::Build(
      engine_, {"Avatar", "James Cameron", "James Cameron"});
  const PairwiseMappingMap pmpm = GenPairwise(map, 2);
  SearchOptions options;
  PairwiseStats pairwise_stats;
  auto ptpm = CreatePairwiseTuplePaths(executor_, pmpm, map, options, ctx_,
                                       &pairwise_stats);
  ASSERT_TRUE(ptpm.ok());

  WeaveStats weave_stats;
  const std::vector<TuplePath> complete =
      GenerateCompleteTuplePaths(*ptpm, 3, options, ctx_, &weave_stats);
  EXPECT_FALSE(complete.empty());
  for (const TuplePath& tp : complete) {
    EXPECT_EQ(tp.size(), 3u);
  }
  // Dedup: all canonical forms distinct.
  std::set<std::string> canon;
  for (const TuplePath& tp : complete) canon.insert(tp.Canonical());
  EXPECT_EQ(canon.size(), complete.size());
  EXPECT_EQ(weave_stats.tuple_paths_per_level.back(), complete.size());
  EXPECT_FALSE(weave_stats.truncated);
}

TEST_F(CoreTest, WeaverBudgetTruncates) {
  const LocationMap map = LocationMap::Build(
      engine_, {"Avatar", "James Cameron", "James Cameron"});
  const auto pmpm = GenPairwise(map, 2);
  SearchOptions options;
  PairwiseStats ps;
  auto ptpm =
      CreatePairwiseTuplePaths(executor_, pmpm, map, options, ctx_, &ps);
  ASSERT_TRUE(ptpm.ok());

  options.max_total_tuple_paths = 1;
  WeaveStats stats;
  GenerateCompleteTuplePaths(*ptpm, 3, options, ctx_, &stats);
  EXPECT_TRUE(stats.truncated);
}

// ---------------------------------------------------------------- Ranking --

TEST(RankingTest, ScoresPreferExactMatchesAndFewerJoins) {
  SearchOptions options;
  TuplePath short_path = TuplePath::SingleVertex(0, 0);
  short_path.AddProjection(0, 0, 1, 1.0);

  TuplePath long_path = TuplePath::SingleVertex(0, 0);
  long_path.AddVertex(2, 0, 0, 0, true);
  long_path.AddProjection(0, 1, 1, 1.0);

  EXPECT_GT(ScoreTuplePath(short_path, options),
            ScoreTuplePath(long_path, options));

  TuplePath weak_match = TuplePath::SingleVertex(0, 0);
  weak_match.AddProjection(0, 0, 1, 0.2);
  EXPECT_GT(ScoreTuplePath(short_path, options),
            ScoreTuplePath(weak_match, options));
}

TEST(RankingTest, GroupsByMappingAndSortsByScore) {
  SearchOptions options;
  // Two tuple paths with the same mapping; one with another mapping (a
  // different attribute id) and low match score.
  TuplePath a1 = TuplePath::SingleVertex(0, 0);
  a1.AddProjection(0, 0, 1, 1.0);
  TuplePath a2 = TuplePath::SingleVertex(0, 1);
  a2.AddProjection(0, 0, 1, 0.8);
  TuplePath b = TuplePath::SingleVertex(0, 2);
  b.AddProjection(0, 0, 2, 0.1);

  const auto ranked = RankMappings({a1, a2, b}, options);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].support, 2u);
  EXPECT_GT(ranked[0].score, ranked[1].score);
  EXPECT_EQ(ranked[1].support, 1u);
}

TEST(RankingTest, RetainsLimitedExamples) {
  SearchOptions options;
  options.retained_tuple_paths_per_mapping = 1;
  TuplePath a1 = TuplePath::SingleVertex(0, 0);
  a1.AddProjection(0, 0, 1, 1.0);
  TuplePath a2 = TuplePath::SingleVertex(0, 1);
  a2.AddProjection(0, 0, 1, 1.0);
  const auto ranked = RankMappings({a1, a2}, options);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].support, 2u);
  EXPECT_EQ(ranked[0].example_tuple_paths.size(), 1u);
}

// ------------------------------------------------------------ SampleSearch --

TEST_F(CoreTest, SearchFindsBothCandidatesForAmbiguousRow) {
  // Avatar + Cameron: director and writer mappings both valid (Example 1).
  const SearchResult result = Search({"Avatar", "James Cameron"});
  EXPECT_EQ(result.candidates.size(), 2u);
  EXPECT_EQ(result.stats.num_valid_mappings, 2u);
  EXPECT_GT(result.stats.num_complete_tuple_paths, 0u);
}

TEST_F(CoreTest, SearchDisambiguatedRowYieldsOneCandidate) {
  // Yates only directed: a single candidate immediately.
  const SearchResult result = Search({"Harry Potter", "David Yates"});
  ASSERT_EQ(result.candidates.size(), 1u);
  const std::string str = result.candidates[0].mapping.ToString(db_);
  EXPECT_NE(str.find("director"), std::string::npos);
}

TEST_F(CoreTest, SearchSingleColumnDegenerates) {
  const SearchResult result = Search({"Avatar"});
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0].mapping.num_vertices(), 1u);
}

TEST_F(CoreTest, SearchWithZeroPmnjNeedsSameRelationSamples) {
  // PMNJ = 0: both samples must live in one tuple. "Avatar" twice works
  // (both columns project movie.title of the same row)...
  SearchOptions options;
  options.pmnj = 0;
  auto same = SampleSearch(engine_, graph_, {"Avatar", "Avatar"}, options);
  ASSERT_TRUE(same.ok());
  ASSERT_EQ(same->candidates.size(), 1u);
  EXPECT_EQ(same->candidates[0].mapping.num_vertices(), 1u);
  EXPECT_EQ(same->candidates[0].mapping.size(), 2u);

  // ...but a title/name pair requires joins, so nothing is found.
  auto cross =
      SampleSearch(engine_, graph_, {"Avatar", "James Cameron"}, options);
  ASSERT_TRUE(cross.ok());
  EXPECT_TRUE(cross->candidates.empty());
}

TEST_F(CoreTest, PairwiseTruncationFlagOnTightBudget) {
  const LocationMap map =
      LocationMap::Build(engine_, {"Avatar", "James Cameron"});
  const auto pmpm = GenPairwise(map, 2);
  SearchOptions options;
  options.max_tuple_paths_per_mapping = 1;
  PairwiseStats stats;
  auto ptpm =
      CreatePairwiseTuplePaths(executor_, pmpm, map, options, ctx_, &stats);
  ASSERT_TRUE(ptpm.ok());
  EXPECT_TRUE(stats.truncated);
}

TEST_F(CoreTest, SearchRejectsEmptySamples) {
  EXPECT_TRUE(SampleSearch(engine_, graph_, {"Avatar", ""})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SampleSearch(engine_, graph_, {}).status().IsInvalidArgument());
}

// The weave keeps covered columns as a 64-bit mask: a wider sample is
// refused up front instead of tripping a check mid-search.
TEST_F(CoreTest, SearchAcceptsAtMost64Columns) {
  std::vector<std::string> widest(static_cast<size_t>(kMaxTargetColumns),
                                  "zzz");
  widest[0] = "Avatar";
  widest[1] = "James Cameron";
  auto accepted = SampleSearch(engine_, graph_, widest);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_TRUE(accepted->candidates.empty());  // "zzz" is found nowhere

  std::vector<std::string> too_wide = widest;
  too_wide.push_back("zzz");
  auto rejected = SampleSearch(engine_, graph_, too_wide);
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
}

TEST_F(CoreTest, SearchIsSound) {
  // Every candidate's mapping, executed with the sample constraints, has
  // support (Theorem 1).
  const std::vector<std::string> samples{"Avatar", "James Cameron"};
  const SearchResult result = Search(samples);
  query::SampleMap sample_map{{0, samples[0]}, {1, samples[1]}};
  for (const CandidateMapping& c : result.candidates) {
    auto supported = executor_.HasSupport(c.mapping, sample_map);
    ASSERT_TRUE(supported.ok());
    EXPECT_TRUE(*supported) << c.mapping.ToString(db_);
  }
}

// ---------------------------------------------------------------- Pruning --

TEST_F(CoreTest, PruneByAttributeDropsNonContainingMappings) {
  SearchResult result = Search({"Avatar", "James Cameron"});
  ASSERT_EQ(result.candidates.size(), 2u);
  // "Big Fish" exists in movie.title: no pruning on column 0.
  EXPECT_EQ(PruneByAttribute(engine_, 0, "Big Fish", &result.candidates), 0u);
  EXPECT_EQ(result.candidates.size(), 2u);
  // A value found nowhere prunes everything.
  EXPECT_EQ(PruneByAttribute(engine_, 0, "zzz", &result.candidates), 2u);
  EXPECT_TRUE(result.candidates.empty());
}

TEST_F(CoreTest, PruneByStructureUsesJoinEvidence) {
  SearchResult result = Search({"Avatar", "James Cameron"});
  ASSERT_EQ(result.candidates.size(), 2u);
  // Big Fish was directed by Burton but written by August: the writer
  // mapping dies (the paper's Example 7).
  size_t pruned = 0;
  ASSERT_TRUE(PruneByStructure(executor_,
                               {{0, "Big Fish"}, {1, "Tim Burton"}},
                               &result.candidates, &pruned)
                  .ok());
  EXPECT_EQ(pruned, 1u);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_NE(result.candidates[0].mapping.ToString(db_).find("director"),
            std::string::npos);
}

// ------------------------------------------------------------- Suggesting --

TEST_F(CoreTest, SuggestsDiscriminatingRows) {
  // Avatar/Cameron leaves the director and writer mappings; the rows that
  // discriminate are exactly the non-shared (movie, person) pairs.
  SearchResult result = Search({"Avatar", "James Cameron"});
  ASSERT_EQ(result.candidates.size(), 2u);
  auto suggestions = SuggestDiscriminatingRows(executor_, result.candidates);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());
  for (const RowSuggestion& s : *suggestions) {
    // Never unanimous, never unsupported.
    EXPECT_GT(s.supporting_candidates, 0u);
    EXPECT_LT(s.supporting_candidates, s.total_candidates);
    EXPECT_EQ(s.total_candidates, 2u);
    EXPECT_EQ(s.row.size(), 2u);
  }
  // (Harry Potter, David Yates) is a director-only row and must appear.
  bool found = false;
  for (const RowSuggestion& s : *suggestions) {
    if (s.row == std::vector<std::string>{"Harry Potter", "David Yates"}) {
      found = true;
    }
    // The shared row (Avatar, James Cameron) must NOT appear.
    EXPECT_NE(s.row,
              (std::vector<std::string>{"Avatar", "James Cameron"}));
  }
  EXPECT_TRUE(found);
}

TEST_F(CoreTest, SuggestionsEmptyWhenNothingToDiscriminate) {
  SearchResult result = Search({"Harry Potter", "David Yates"});
  ASSERT_EQ(result.candidates.size(), 1u);
  auto suggestions = SuggestDiscriminatingRows(executor_, result.candidates);
  ASSERT_TRUE(suggestions.ok());
  EXPECT_TRUE(suggestions->empty());
}

TEST_F(CoreTest, SuggestionLimitRespected) {
  SearchResult result = Search({"Avatar", "James Cameron"});
  SuggestOptions options;
  options.limit = 1;
  auto suggestions =
      SuggestDiscriminatingRows(executor_, result.candidates, options);
  ASSERT_TRUE(suggestions.ok());
  EXPECT_EQ(suggestions->size(), 1u);
}

TEST_F(CoreTest, SessionSuggestRowsDrivesConvergence) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  ASSERT_EQ(session.candidates().size(), 2u);

  auto suggestions = session.SuggestRows();
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());
  // Type the top suggestion as the next row: the candidate set must shrink.
  const RowSuggestion& top = suggestions->front();
  for (size_t c = 0; c < top.row.size(); ++c) {
    ASSERT_TRUE(session.Input(1, c, top.row[c]).ok());
  }
  EXPECT_TRUE(session.converged());
}

// ---------------------------------------------------------------- Session --

TEST_F(CoreTest, SessionLifecycle) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  EXPECT_EQ(session.state(), SessionState::kAwaitingFirstRow);
  EXPECT_EQ(session.num_samples(), 0u);

  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  EXPECT_EQ(session.state(), SessionState::kAwaitingFirstRow);
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  EXPECT_EQ(session.state(), SessionState::kRefining);
  EXPECT_EQ(session.candidates().size(), 2u);
  EXPECT_EQ(session.num_samples(), 2u);

  ASSERT_TRUE(session.Input(1, 0, "Harry Potter").ok());
  EXPECT_EQ(session.state(), SessionState::kRefining);
  ASSERT_TRUE(session.Input(1, 1, "David Yates").ok());
  EXPECT_EQ(session.state(), SessionState::kConverged);
  EXPECT_TRUE(session.converged());
  EXPECT_NE(session.best().mapping.ToString(db_).find("director"),
            std::string::npos);
}

TEST_F(CoreTest, SessionInputValidation) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  EXPECT_TRUE(session.Input(0, 5, "x").IsOutOfRange());
  // Lower rows before the first search are rejected.
  EXPECT_TRUE(session.Input(1, 0, "x").IsFailedPrecondition());
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  // First row is frozen once searched.
  EXPECT_TRUE(session.Input(0, 0, "Big Fish").IsFailedPrecondition());
}

TEST_F(CoreTest, SessionNoMappingState) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  // An impossible follow-up sample kills all candidates.
  ASSERT_TRUE(session.Input(1, 1, "Nobody Anywhere").ok());
  EXPECT_EQ(session.state(), SessionState::kNoMapping);
}

TEST_F(CoreTest, SessionResetRestoresInitialState) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  session.Reset();
  EXPECT_EQ(session.state(), SessionState::kAwaitingFirstRow);
  EXPECT_TRUE(session.candidates().empty());
  EXPECT_EQ(session.num_samples(), 0u);
  // The first row is editable again.
  EXPECT_TRUE(session.Input(0, 0, "Big Fish").ok());
}

TEST_F(CoreTest, SessionRenameColumn) {
  Session session(&engine_, &graph_, {"a", "b"});
  ASSERT_TRUE(session.RenameColumn(0, "Name").ok());
  EXPECT_EQ(session.column_names()[0], "Name");
  EXPECT_TRUE(session.RenameColumn(9, "x").IsOutOfRange());
}

TEST_F(CoreTest, SessionRejectsIrrelevantSamplesWhenEnabled) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  session.set_reject_irrelevant_samples(true);
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  const size_t before = session.candidates().size();
  ASSERT_EQ(before, 2u);

  // A sample found nowhere in the source would kill every candidate: with
  // protection on it is rejected and the candidates survive.
  ASSERT_TRUE(session.Input(1, 1, "Nobody Anywhere").ok());
  EXPECT_TRUE(session.last_input_rejected());
  EXPECT_EQ(session.candidates().size(), before);
  EXPECT_EQ(session.state(), SessionState::kRefining);
  EXPECT_EQ(session.cell(1, 1), "");  // the cell was cleared

  // A relevant sample is accepted as usual and clears the flag.
  ASSERT_TRUE(session.Input(1, 0, "Harry Potter").ok());
  EXPECT_FALSE(session.last_input_rejected());
}

// Regression: a rejection from before Reset() must not survive it — the
// new interaction starts with a clean flag.
TEST_F(CoreTest, SessionResetClearsRejectionFlag) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  session.set_reject_irrelevant_samples(true);
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  ASSERT_TRUE(session.Input(1, 1, "Nobody Anywhere").ok());
  ASSERT_TRUE(session.last_input_rejected());

  session.Reset();
  EXPECT_FALSE(session.last_input_rejected());
}

// The rollback path end to end, across a Reset()/re-search cycle: the
// rejected cell is cleared, the candidate set is restored, and the flag
// tracks exactly the rejecting input on both sides of the cycle.
TEST_F(CoreTest, SessionRejectRollbackAcrossResetCycle) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  session.set_reject_irrelevant_samples(true);
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  const std::vector<CandidateMapping> before = session.candidates();
  ASSERT_EQ(before.size(), 2u);

  ASSERT_TRUE(session.Input(1, 0, "Nobody Anywhere").ok());
  EXPECT_TRUE(session.last_input_rejected());
  EXPECT_EQ(session.cell(1, 0), "");  // rolled back
  ASSERT_EQ(session.candidates().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(session.candidates()[i].mapping.Canonical(),
              before[i].mapping.Canonical());
  }

  // Re-search after Reset(): same first row, fresh interaction. The prior
  // rejection leaves no residue, and the rollback works again.
  session.Reset();
  EXPECT_FALSE(session.last_input_rejected());
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  EXPECT_FALSE(session.last_input_rejected());
  ASSERT_EQ(session.candidates().size(), before.size());
  ASSERT_TRUE(session.Input(1, 1, "Nobody Anywhere").ok());
  EXPECT_TRUE(session.last_input_rejected());
  EXPECT_EQ(session.cell(1, 1), "");
  EXPECT_EQ(session.candidates().size(), before.size());
  // An accepted sample clears the flag again.
  ASSERT_TRUE(session.Input(1, 0, "Harry Potter").ok());
  EXPECT_FALSE(session.last_input_rejected());
}

// Regression: PruneByAttribute must observe a pre-expired deadline BEFORE
// paying any per-candidate probe, and unexamined candidates must stay.
TEST_F(CoreTest, PruneByAttributePreExpiredDeadlineKeepsCandidates) {
  SearchResult result = Search({"Avatar", "James Cameron"});
  std::vector<CandidateMapping> candidates = result.candidates;
  ASSERT_EQ(candidates.size(), 2u);

  ExecutionContext ctx;
  ctx.set_deadline(SearchClock::now() - std::chrono::milliseconds(1));
  // "Nobody Anywhere" would disprove every candidate if probed — the
  // expired deadline must win, keeping all of them at zero probe cost.
  const size_t pruned =
      PruneByAttribute(engine_, 1, "Nobody Anywhere", &candidates, &ctx);
  EXPECT_EQ(pruned, 0u);
  EXPECT_EQ(candidates.size(), 2u);
  EXPECT_EQ(ctx.trace().text_probes.probes, 0u);
  EXPECT_TRUE(ctx.stop_requested());
}

// Regression: SuggestRows must run under the session's context — the armed
// deadline applies and the polls/probes are visible in the trace.
TEST_F(CoreTest, SessionSuggestRowsHonorsDeadlineAndTracesProbes) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  ASSERT_EQ(session.candidates().size(), 2u);

  session.context().set_deadline(SearchClock::now() -
                                 std::chrono::milliseconds(1));
  auto expired = session.SuggestRows();
  ASSERT_TRUE(expired.ok());
  EXPECT_TRUE(expired->empty());  // no candidate evaluated past the deadline
  EXPECT_GE(session.context().stop_checks(), 1u);
  EXPECT_TRUE(session.context().stop_requested());

  session.context().clear_deadline();
  auto fresh = session.SuggestRows();
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->empty());
  EXPECT_FALSE(session.context().stop_requested());
  EXPECT_GE(session.context().stop_checks(), 1u);
}

TEST_F(CoreTest, SessionEmptyCellIsIgnored) {
  Session session(&engine_, &graph_, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "").ok());
  EXPECT_EQ(session.num_samples(), 0u);
  EXPECT_EQ(session.cell(0, 0), "");
}

// ------------------------------------------------------- ExecutionContext --

// Counting fake clock for the throttle contract (NowFn is a plain function
// pointer, so the counter lives at file scope).
uint64_t g_fake_now_calls = 0;
SearchClock::time_point CountingEpochNow() {
  ++g_fake_now_calls;
  return SearchClock::time_point{};
}

TEST(ExecutionContextTest, ShouldStopThrottlesClockReads) {
  g_fake_now_calls = 0;
  ExecutionContext ctx;
  ctx.SetClockForTesting(&CountingEpochNow);
  // A deadline far beyond the fake "now" so no check ever stops.
  ctx.set_deadline(SearchClock::time_point{} + std::chrono::hours(1));

  constexpr uint64_t kChecks = 100 * ExecutionContext::kStopPollStride;
  for (uint64_t i = 0; i < kChecks; ++i) {
    ASSERT_FALSE(ctx.ShouldStop());
  }
  EXPECT_EQ(ctx.stop_checks(), kChecks);
  // The contract: at most one real clock read per kStopPollStride checks
  // (plus the always-read first poll).
  EXPECT_LE(ctx.clock_reads(),
            kChecks / ExecutionContext::kStopPollStride + 1);
  EXPECT_GE(ctx.clock_reads(), 1u);
  EXPECT_EQ(g_fake_now_calls, ctx.clock_reads());
}

TEST(ExecutionContextTest, PreExpiredDeadlineStopsOnTheVeryFirstPoll) {
  ExecutionContext ctx;
  ctx.set_deadline(SearchClock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.stop_requested());
  EXPECT_EQ(ctx.clock_reads(), 1u);
  // Sticky latch: later polls answer from the latch, not the clock.
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.clock_reads(), 1u);
}

TEST(ExecutionContextTest, CancelTokenTripsStickyLatch) {
  std::atomic<bool> cancel{false};
  ExecutionContext ctx;
  ctx.set_cancel_token(&cancel);
  EXPECT_FALSE(ctx.ShouldStop());
  cancel.store(true);
  EXPECT_TRUE(ctx.ShouldStop());
  cancel.store(false);
  EXPECT_TRUE(ctx.ShouldStop());  // latched even after the token clears
  ctx.ResetForSearch();
  EXPECT_FALSE(ctx.stop_requested());
  EXPECT_EQ(ctx.stop_checks(), 0u);
}

TEST(ExecutionContextTest, NoDeadlineNeverReadsClock) {
  g_fake_now_calls = 0;
  ExecutionContext ctx;
  ctx.SetClockForTesting(&CountingEpochNow);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(ctx.ShouldStop());
  }
  EXPECT_EQ(ctx.clock_reads(), 0u);
  EXPECT_EQ(g_fake_now_calls, 0u);
}

// Every TPW stage must observe a pre-expired deadline: the result comes
// back promptly, flagged, and with every stage span marked stopped-early.
TEST_F(CoreTest, PreExpiredDeadlineTruncatesEveryStage) {
  SearchOptions options;
  ExecutionContext ctx;
  ctx.set_deadline(SearchClock::now() - std::chrono::milliseconds(1));
  auto result = SampleSearch(engine_, graph_,
                             {"Avatar", "James Cameron", "James Cameron"},
                             options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.deadline_expired);
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_TRUE(result->candidates.empty());
  for (size_t s = 0; s < kNumSearchStages; ++s) {
    // kPrune belongs to the interactive refinement path; SampleSearch
    // never opens a span for it.
    if (static_cast<SearchStage>(s) == SearchStage::kPrune) continue;
    EXPECT_TRUE(result->stats.trace.stages[s].stopped_early)
        << SearchStageName(static_cast<SearchStage>(s));
  }
}

TEST_F(CoreTest, PreExpiredDeadlineTruncatesSingleColumnSearch) {
  SearchOptions options;
  ExecutionContext ctx;
  ctx.set_deadline(SearchClock::now() - std::chrono::milliseconds(1));
  auto result = SampleSearch(engine_, graph_, {"Avatar"}, options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.deadline_expired);
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_TRUE(result->candidates.empty());
}

TEST_F(CoreTest, TuplePathCapTruncatesWeaveWithoutDeadlineFlag) {
  SearchOptions options;
  options.max_total_tuple_paths = 1;  // the level-2 paths alone exceed this
  ExecutionContext ctx;
  auto result = SampleSearch(engine_, graph_,
                             {"Avatar", "James Cameron", "James Cameron"},
                             options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.weave.truncated);
  EXPECT_TRUE(result->stats.truncated);
  // A tuple-path cap is a truncation event, not a deadline event.
  EXPECT_FALSE(result->stats.deadline_expired);
}

TEST_F(CoreTest, ArenaRecycledAcrossSearchesYieldsIdenticalResults) {
  SearchOptions options;
  ExecutionContext ctx;
  auto r1 = SampleSearch(engine_, graph_, {"Avatar", "James Cameron"},
                         options, ctx);
  ASSERT_TRUE(r1.ok());
  ASSERT_FALSE(r1->candidates.empty());
  EXPECT_GT(ctx.arena().total_allocations(), 0u);
  EXPECT_GT(r1->stats.trace.arena_bytes_used, 0u);

  ctx.ResetForSearch();
  auto r2 = SampleSearch(engine_, graph_, {"Avatar", "James Cameron"},
                         options, ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ctx.arena().num_resets(), 1u);

  ASSERT_EQ(r1->candidates.size(), r2->candidates.size());
  for (size_t i = 0; i < r1->candidates.size(); ++i) {
    const CandidateMapping& a = r1->candidates[i];
    const CandidateMapping& b = r2->candidates[i];
    EXPECT_EQ(a.mapping.ToString(db_), b.mapping.ToString(db_));
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_EQ(a.support, b.support);
    // Retained example paths were copied off the arena by ranking, so the
    // first search's examples stay readable after the arena was recycled.
    ASSERT_EQ(a.example_tuple_paths.size(), b.example_tuple_paths.size());
    for (size_t j = 0; j < a.example_tuple_paths.size(); ++j) {
      EXPECT_EQ(a.example_tuple_paths[j].Canonical(),
                b.example_tuple_paths[j].Canonical());
    }
  }
}

// ---------------------------------------------------------- SearchOptions --

TEST(SearchOptionsTest, FingerprintChangesWithEachSemanticField) {
  const std::string base = SearchOptions{}.Fingerprint();
  {
    SearchOptions o;
    o.pmnj += 1;
    EXPECT_NE(o.Fingerprint(), base);
  }
  {
    SearchOptions o;
    o.matching_weight += 0.125;
    EXPECT_NE(o.Fingerprint(), base);
  }
  {
    SearchOptions o;
    o.complexity_weight += 0.125;
    EXPECT_NE(o.Fingerprint(), base);
  }
  {
    SearchOptions o;
    o.max_tuple_paths_per_mapping += 1;
    EXPECT_NE(o.Fingerprint(), base);
  }
  {
    SearchOptions o;
    o.max_total_tuple_paths += 1;
    EXPECT_NE(o.Fingerprint(), base);
  }
  {
    SearchOptions o;
    o.retained_tuple_paths_per_mapping += 1;
    EXPECT_NE(o.Fingerprint(), base);
  }
}

// ------------------------------------------------ located pairwise rows --

// Pairwise execution hands each query the verified rows of the two
// location-map occurrences its mapping was generated from instead of
// re-probing the engine. These tests hold that path to the probing one.

// Rows of the occurrence in `col` that `mapping` projects the column from.
query::LocatedRows LocatedRowsOf(const MappingPath& mapping,
                                 const ColumnLocations& col) {
  const Projection* p = mapping.FindProjection(col.target_column);
  EXPECT_NE(p, nullptr);
  if (p == nullptr) return {col.target_column, {}, text::EmptyRowSet()};
  const text::AttributeRef attr{mapping.vertex(p->vertex).relation,
                                p->attribute};
  for (const text::Occurrence& occ : col.occurrences) {
    if (occ.attr == attr) return {col.target_column, attr, occ.rows};
  }
  ADD_FAILURE() << "no occurrence for column " << col.target_column;
  return {col.target_column, attr, text::EmptyRowSet()};
}

struct LocatedCoverage {
  size_t queries = 0;
  size_t supported = 0;  // queries with at least one tuple path
  size_t zero_join = 0;  // single-vertex mappings: two predicates, one vertex
  size_t zero_join_supported = 0;
};

// For every pairwise work item of `row`'s search: Execute given the
// located rows returns exactly (relations, rows, projections, scores,
// order) what Execute returns when it probes the engine, and issues no
// probe. CreatePairwiseTuplePaths, which passes the located rows itself,
// returns the probed supports of each column pair in mapping order.
void ExpectLocatedEqualsProbed(const text::FullTextEngine& engine,
                               const graph::SchemaGraph& graph,
                               const std::vector<std::string>& row,
                               LocatedCoverage* coverage) {
  const SearchOptions options;
  ExecutionContext ctx;
  const LocationMap locations = LocationMap::Build(engine, row, &ctx);
  const PairwiseMappingMap pmpm =
      GeneratePairwiseMappingPaths(graph, locations, options, ctx);
  const query::PathExecutor executor(&engine);
  query::ExecOptions exec;
  exec.max_results = options.max_tuple_paths_per_mapping;

  PairwiseTupleMap expected;
  for (const auto& [key, mappings] : pmpm) {
    const auto& [i, j] = key;
    const ColumnLocations& col_i = locations.column(static_cast<size_t>(i));
    const ColumnLocations& col_j = locations.column(static_cast<size_t>(j));
    const query::SampleMap samples{{i, col_i.sample}, {j, col_j.sample}};
    for (const MappingPath& mapping : mappings) {
      const query::LocatedRows located[] = {LocatedRowsOf(mapping, col_i),
                                            LocatedRowsOf(mapping, col_j)};
      ExecutionContext located_ctx;
      auto given =
          executor.Execute(mapping, samples, exec, &located_ctx, located);
      auto probed = executor.Execute(mapping, samples, exec);
      ASSERT_TRUE(given.ok()) << given.status();
      ASSERT_TRUE(probed.ok()) << probed.status();
      EXPECT_EQ(located_ctx.probe_counters().Snapshot().probes, 0u);
      ASSERT_EQ(given->size(), probed->size())
          << mapping.ToString(engine.db());
      for (size_t t = 0; t < given->size(); ++t) {
        ASSERT_TRUE(testing::IdenticalTuplePaths((*given)[t], (*probed)[t]))
            << mapping.ToString(engine.db()) << " tuple path " << t;
      }
      ++coverage->queries;
      if (!probed->empty()) ++coverage->supported;
      if (mapping.num_vertices() == 1) {
        ++coverage->zero_join;
        if (!probed->empty()) ++coverage->zero_join_supported;
      }
      for (TuplePath& tp : *probed) {
        expected[key].push_back(std::move(tp));
      }
    }
  }

  auto ptpm = CreatePairwiseTuplePaths(executor, pmpm, locations, options,
                                       ctx, nullptr);
  ASSERT_TRUE(ptpm.ok()) << ptpm.status();
  ASSERT_EQ(ptpm->size(), expected.size());
  for (const auto& [key, paths] : expected) {
    const std::vector<TuplePath>& actual = ptpm->at(key);
    ASSERT_EQ(actual.size(), paths.size());
    for (size_t t = 0; t < paths.size(); ++t) {
      ASSERT_TRUE(testing::IdenticalTuplePaths(actual[t], paths[t]));
    }
  }
}

// First rows of every task of the three Section-6.2 task sets (J = 2, 3,
// 4; m = 3..6) over the movie source.
std::vector<std::vector<std::string>> MovieFirstRows(
    const text::FullTextEngine& engine) {
  auto task_sets = datagen::MakeYahooTaskSets(engine.db());
  EXPECT_TRUE(task_sets.ok()) << task_sets.status();
  if (!task_sets.ok()) return {};
  EXPECT_EQ(task_sets->size(), 3u);
  std::vector<std::vector<std::string>> rows;
  for (const workload::ReplayScript& script :
       workload::BuildReplayScripts(engine, *task_sets, /*max_rows=*/2)) {
    for (const std::vector<std::string>& row : script.rows) {
      rows.push_back(row);
    }
  }
  return rows;
}

TEST(LocatedRowsTest, MovieTaskWorkItemsMatchProbing) {
  const Database db = datagen::MakeYahooMovies();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  const std::vector<std::vector<std::string>> rows = MovieFirstRows(engine);
  ASSERT_GE(rows.size(), 12u);
  LocatedCoverage coverage;
  for (const std::vector<std::string>& row : rows) {
    SCOPED_TRACE("first row " + Join(row, " | "));
    ExpectLocatedEqualsProbed(engine, graph, row, &coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.queries, 1000u);
  EXPECT_GT(coverage.supported, 0u);
  EXPECT_LT(coverage.supported, coverage.queries);
}

// A zero-join chain puts both predicates on its one vertex: the plan
// intersects the two located row sets. "Avatar" and "Avatar Returns" both
// land in film.title (the intersection is the "Avatar Returns" rows);
// "Cameron" and "Burton" both in person.name (disjoint: provably empty).
TEST(LocatedRowsTest, ZeroJoinChainIntersectsTwoPredicatesOnOneVertex) {
  const Database db = testing::MakeFilmDb();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  LocatedCoverage coverage;
  ExpectLocatedEqualsProbed(engine, graph, {"Avatar", "Avatar Returns"},
                            &coverage);
  ExpectLocatedEqualsProbed(engine, graph, {"Cameron", "Burton"}, &coverage);
  EXPECT_EQ(coverage.zero_join, 2u);
  EXPECT_EQ(coverage.zero_join_supported, 1u);

  // The intersection itself: six "Avatar Returns" films.
  const query::PathExecutor executor(&engine);
  const storage::RelationId film = db.FindRelation("film");
  MappingPath chain = MappingPath::SingleVertex(film);
  chain.AddProjection(0, 0, 1);
  chain.AddProjection(1, 0, 1);
  const query::SampleMap samples{{0, "Avatar"}, {1, "Avatar Returns"}};
  const text::AttributeRef title{film, 1};
  const query::LocatedRows located[] = {
      {0, title, engine.MatchingRows(title, "Avatar")},
      {1, title, engine.MatchingRows(title, "Avatar Returns")}};
  auto paths = executor.Execute(chain, samples, {}, nullptr, located);
  ASSERT_TRUE(paths.ok()) << paths.status();
  EXPECT_EQ(paths->size(), 6u);
}

// Pairwise execution probes nothing: every probe a search records is one
// of its locate stage's.
TEST(LocatedRowsTest, SearchProbesEqualItsLocateStageProbes) {
  const Database db = datagen::MakeYahooMovies();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  size_t path_queries = 0;
  for (const std::vector<std::string>& row : MovieFirstRows(engine)) {
    SCOPED_TRACE("first row " + Join(row, " | "));
    ExecutionContext locate_ctx;
    LocationMap::Build(engine, row, &locate_ctx);
    const uint64_t locate_probes =
        locate_ctx.probe_counters().Snapshot().probes;
    auto result = SampleSearch(engine, graph, row);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(locate_probes, 0u);
    EXPECT_EQ(result->stats.trace.text_probes.probes, locate_probes);
    path_queries += result->stats.pairwise.num_mappings;
  }
  EXPECT_GT(path_queries, 0u);
}

}  // namespace
}  // namespace mweaver::core
