// Property-based equivalence tests (seeded, replayable):
//
//   1. On many random mini-databases, the full TPW pipeline returns exactly
//      the mapping set of the brute-force naive baseline — the paper's
//      soundness + completeness claim, fuzzed across schema instances and
//      match modes (substring and fuzzy) instead of a handful of fixed
//      seeds.
//   2. The weave (Algorithm 5) returns exactly the level sequences, stats
//      and ranked candidates of the clone-then-canonicalise reference in
//      reference_weave.h, at every truncation point; the pairwise mapping
//      paths of each column pair are pairwise non-isomorphic.
//   3. The pruning passes, which share one probe per (column, attribute)
//      and answer support queries without building tuple paths, keep
//      exactly the candidates of the per-candidate reference loop in
//      reference_prune.h after every keystroke. A session, which keeps the
//      located rows of the spreadsheet row it prunes across keystrokes,
//      keeps exactly the candidates of pass-local pruning through seeded
//      scripts of overwrites, cleared cells, row switches and resets.
//   4. The accelerated text lookup equals the frozen linear-scan reference
//      row-for-row even while fault injection randomly forces scan
//      fallbacks and evicts/drops probe-memo entries mid-stream: cache
//      chaos may cost recomputation, never rows.
//   5. FindOccurrences, which resolves a sample once against the tenant
//      vocabulary and probes only the attributes that can hold it, equals
//      probing every attribute through the scan reference: in every match
//      mode, with numeric and punctuation-only samples, and after
//      streaming deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "baselines/naive_search.h"
#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/location_map.h"
#include "core/pairwise.h"
#include "core/pruning.h"
#include "core/ranking.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "core/weaver.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "reference_prune.h"
#include "reference_weave.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/inverted_index.h"
#include "text/match.h"
#include "text/numeric.h"
#include "text/vocabulary.h"
#include "workload/replay.h"

namespace mweaver {
namespace {

using ::mweaver::testing::CanonicalMappingSet;
using ::mweaver::testing::IdenticalTuplePaths;
using ::mweaver::testing::MakeRandomTextRelation;
using ::mweaver::testing::MakeUniversityDb;
using ::mweaver::testing::RandomSearchableValue;
using ::mweaver::testing::ReferencePruneByAttribute;
using ::mweaver::testing::ReferencePruneByStructure;
using ::mweaver::testing::ReferenceSupport;
using ::mweaver::testing::ReferenceCompleteTuplePaths;

// ------------------------- TPW == naive on 50+ random mini-databases ------

// Each seed builds a fresh random database (schema fixed, contents and FK
// wiring random), draws one random sample tuple, and demands exact mapping-
// set agreement between the accelerated pipeline and the brute-force
// baseline. The match policy cycles Substring / Fuzzy(1) / Fuzzy(2) by seed
// (the weave-reference corpus's cycle), so the fuzzy lookups run through
// the whole pipeline too. Failures print the seed, so any counterexample
// replays alone.
TEST(TpwNaiveEquivalenceProperty, AgreesOnRandomDatabases) {
  constexpr int kDatabases = 50;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const storage::Database db =
        MakeUniversityDb(7'000 + static_cast<uint64_t>(seed),
                         /*people=*/8 + seed % 5);
    const text::MatchPolicy policy =
        seed % 3 == 0   ? text::MatchPolicy::Substring()
        : seed % 3 == 1 ? text::MatchPolicy::Fuzzy(1)
                        : text::MatchPolicy::Fuzzy(2);
    const text::FullTextEngine engine(&db, policy);
    const graph::SchemaGraph graph(&db);
    Rng rng(40'000 + static_cast<uint64_t>(seed) * 13);

    const int m = 2 + seed % 3;  // target widths 2..4
    std::vector<std::string> sample_tuple;
    for (int i = 0; i < m; ++i) {
      sample_tuple.push_back(RandomSearchableValue(db, &rng));
    }

    auto tpw = core::SampleSearch(engine, graph, sample_tuple);
    ASSERT_TRUE(tpw.ok()) << tpw.status().ToString();

    baselines::NaiveOptions naive_options;
    naive_options.enumeration.max_candidates = 500'000;
    auto naive =
        baselines::NaiveSampleSearch(engine, graph, sample_tuple,
                                     naive_options, nullptr);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();

    std::set<std::string> naive_canon;
    for (const auto& mp : *naive) naive_canon.insert(mp.Canonical());
    EXPECT_EQ(CanonicalMappingSet(tpw->candidates), naive_canon)
        << "m=" << m << " first sample: '" << sample_tuple[0] << "'";
  }
}

// Serializes everything a client can observe about one candidate list:
// canonical mapping, full-precision score, support count, and the retained
// example tuple paths in order. Any divergence — ordering, a float summed
// in a different order, a dropped example — shows up as a byte difference.
std::string SerializeCandidates(
    const std::vector<core::CandidateMapping>& candidates) {
  std::string out;
  for (const core::CandidateMapping& c : candidates) {
    out += c.mapping.Canonical();
    out += StrFormat("|score=%.17g|support=%zu", c.score, c.support);
    for (const core::TuplePath& tp : c.example_tuple_paths) {
      out += "|ex:" + tp.Canonical();
    }
    out += "\n";
  }
  return out;
}

// -------------- Weave == clone-then-canonicalise reference, exactly --------

// What one corpus exercised, so a test can demand it covered something.
struct WeaveCoverage {
  size_t runs = 0;
  size_t truncated_runs = 0;
  size_t multi_level_runs = 0;  // runs that wove at least two levels
  size_t duplicate_weaves = 0;  // successes the dedup set rejected
};

// Runs the search pipeline up to the pairwise tuple paths for
// `sample_tuple`, then demands, for every level n and at several
// max_total_tuple_paths truncation points (unlimited, then cuts spread over
// the full run), that the weave returns the reference's paths one for one,
// in order, with equal WeaveStats, and that ranking both outputs gives
// bit-equal candidates.
void ExpectWeaveMatchesReference(const text::FullTextEngine& engine,
                                 const graph::SchemaGraph& graph,
                                 const std::vector<std::string>& sample_tuple,
                                 WeaveCoverage* coverage) {
  const int m = static_cast<int>(sample_tuple.size());
  core::SearchOptions options;
  core::ExecutionContext ctx;
  const core::LocationMap locations =
      core::LocationMap::Build(engine, sample_tuple, &ctx);
  const core::PairwiseMappingMap pmpm =
      core::GeneratePairwiseMappingPaths(graph, locations, options, ctx);
  const query::PathExecutor executor(&engine);
  auto ptpm = core::CreatePairwiseTuplePaths(executor, pmpm, locations,
                                             options, ctx, nullptr);
  ASSERT_TRUE(ptpm.ok()) << ptpm.status().ToString();

  core::WeaveStats full;
  {
    core::ExecutionContext weave_ctx;
    core::GenerateCompleteTuplePaths(*ptpm, m, options, weave_ctx, &full);
  }
  std::vector<size_t> budgets{0};
  for (size_t cut : {size_t{1}, full.total_tuple_paths / 3,
                     full.total_tuple_paths / 2,
                     full.total_tuple_paths - 1}) {
    if (cut > 0 && cut < full.total_tuple_paths) budgets.push_back(cut);
  }

  for (size_t budget : budgets) {
    core::SearchOptions weave_options = options;
    weave_options.max_total_tuple_paths = budget;
    for (int n = 2; n <= m; ++n) {
      SCOPED_TRACE(StrFormat("m=%d level=%d budget=%zu", m, n, budget));
      core::ExecutionContext actual_ctx;
      core::ExecutionContext expected_ctx;
      core::WeaveStats actual_stats;
      core::WeaveStats expected_stats;
      const std::vector<core::TuplePath> actual =
          core::GenerateCompleteTuplePaths(*ptpm, n, weave_options,
                                           actual_ctx, &actual_stats);
      const std::vector<core::TuplePath> expected =
          ReferenceCompleteTuplePaths(*ptpm, n, weave_options, expected_ctx,
                                      &expected_stats);
      EXPECT_EQ(actual_stats.tuple_paths_per_level,
                expected_stats.tuple_paths_per_level);
      EXPECT_EQ(actual_stats.total_tuple_paths,
                expected_stats.total_tuple_paths);
      EXPECT_EQ(actual_stats.weave_attempts, expected_stats.weave_attempts);
      EXPECT_EQ(actual_stats.weave_successes, expected_stats.weave_successes);
      EXPECT_EQ(actual_stats.truncated, expected_stats.truncated);
      EXPECT_EQ(actual_stats.deadline_expired,
                expected_stats.deadline_expired);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_TRUE(IdenticalTuplePaths(actual[i], expected[i]))
            << "path " << i;
      }
      EXPECT_EQ(
          SerializeCandidates(core::RankMappings(actual, weave_options)),
          SerializeCandidates(core::RankMappings(expected, weave_options)));
      ++coverage->runs;
      coverage->truncated_runs += actual_stats.truncated ? 1 : 0;
      coverage->multi_level_runs += n >= 4 && !actual.empty() ? 1 : 0;
      const size_t woven_distinct =
          actual_stats.total_tuple_paths -
          actual_stats.tuple_paths_per_level[2];
      coverage->duplicate_weaves +=
          actual_stats.weave_successes - std::min(actual_stats.weave_successes,
                                                  woven_distinct);
    }
  }
}

// One database of the parallel test's corpus (contents and FK wiring from
// the seed, match mode cycling with it), with a random sample tuple widened
// to m = 2..5 so the weave runs up to three levels.
struct WideCorpusCase {
  explicit WideCorpusCase(int seed)
      : db(MakeUniversityDb(7'000 + static_cast<uint64_t>(seed),
                            /*people=*/8 + seed % 5)),
        engine(&db, seed % 3 == 0   ? text::MatchPolicy::Substring()
                    : seed % 3 == 1 ? text::MatchPolicy::Fuzzy(1)
                                    : text::MatchPolicy::Fuzzy(2)),
        graph(&db) {
    Rng rng(40'000 + static_cast<uint64_t>(seed) * 13);
    for (int i = 0; i < 2 + seed % 4; ++i) {
      sample_tuple.push_back(RandomSearchableValue(db, &rng));
    }
  }

  const storage::Database db;
  const text::FullTextEngine engine;
  const graph::SchemaGraph graph;
  std::vector<std::string> sample_tuple;
};

TEST(WeaveReferenceEquivalenceProperty, RandomDatabases) {
  constexpr int kDatabases = 50;
  WeaveCoverage coverage;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const WideCorpusCase corpus(seed);
    ExpectWeaveMatchesReference(corpus.engine, corpus.graph,
                                corpus.sample_tuple, &coverage);
  }
  EXPECT_GT(coverage.truncated_runs, 0u);
  EXPECT_GT(coverage.multi_level_runs, 0u);
  EXPECT_GT(coverage.duplicate_weaves, 0u);
}

// The movie source the benchmarks search (200 movies): first rows of every
// Section-6.2 task, m = 3..6, where most successful weaves are duplicates.
TEST(WeaveReferenceEquivalenceProperty, MovieTaskFirstRows) {
  const storage::Database db = datagen::MakeYahooMovies();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  auto task_sets = datagen::MakeYahooTaskSets(db);
  ASSERT_TRUE(task_sets.ok()) << task_sets.status().ToString();
  WeaveCoverage coverage;
  for (const workload::ReplayScript& script :
       workload::BuildReplayScripts(engine, *task_sets, /*max_rows=*/3)) {
    for (size_t r = 0; r < script.rows.size(); r += 2) {
      SCOPED_TRACE("first row " + Join(script.rows[r], " | "));
      ExpectWeaveMatchesReference(engine, graph, script.rows[r], &coverage);
    }
  }
  EXPECT_GT(coverage.multi_level_runs, 0u);
  EXPECT_GT(coverage.truncated_runs, 0u);
  EXPECT_GT(coverage.duplicate_weaves, coverage.runs);
}

// GeneratePairwiseMappingPaths emits one chain per (start attribute, walk,
// end attribute) without a dedup pass; this holds it to the structural
// argument that no two chains of a column pair are isomorphic.
TEST(PairwiseMappingProperty, CanonicalsDistinctWithinEachColumnPair) {
  constexpr int kDatabases = 50;
  size_t mappings = 0;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const WideCorpusCase corpus(seed);
    for (int pmnj : {1, 2, 3}) {
      core::SearchOptions options;
      options.pmnj = pmnj;
      core::ExecutionContext ctx;
      const core::LocationMap locations =
          core::LocationMap::Build(corpus.engine, corpus.sample_tuple, &ctx);
      const core::PairwiseMappingMap pmpm = core::GeneratePairwiseMappingPaths(
          corpus.graph, locations, options, ctx);
      for (const auto& [key, bucket] : pmpm) {
        std::set<std::string> canonicals;
        for (const core::MappingPath& mp : bucket) {
          EXPECT_TRUE(canonicals.insert(mp.Canonical()).second)
              << "pmnj " << pmnj << " pair (" << key.first << ","
              << key.second << ") repeats " << mp.Canonical();
        }
        mappings += bucket.size();
      }
    }
  }
  EXPECT_GT(mappings, 0u);
}

// ------------- Shared-probe pruning passes == per-candidate reference ------

// What one pruning corpus exercised.
struct PruneCoverage {
  size_t keystrokes = 0;
  size_t structure_passes = 0;
  size_t pruned = 0;           // candidates either pass removed
  size_t unsupported = 0;      // HasSupport == false checks
  size_t probes_saved = 0;     // reference probes - pass probes
  // Keystrokes whose candidates project some typed column from two or
  // more attributes: only there can a pass confuse one (column, attribute)
  // pair's rows with another's.
  size_t multi_attribute_keystrokes = 0;
};

// True iff some column of `samples` is projected from two or more
// attributes across `candidates`.
bool SomeColumnHasTwoAttributes(
    const std::vector<core::CandidateMapping>& candidates,
    const query::SampleMap& samples) {
  for (const auto& [column, sample] : samples) {
    std::set<text::AttributeRef> attrs;
    for (const core::CandidateMapping& cand : candidates) {
      if (const core::Projection* p = cand.mapping.FindProjection(column)) {
        attrs.insert({cand.mapping.vertex(p->vertex).relation, p->attribute});
      }
    }
    if (attrs.size() > 1) return true;
  }
  return false;
}

// Types `rows` below the first row into a search's candidates, one cell at
// a time in a seeded column order, as Session::RunPruning does. After every
// keystroke the production passes must keep exactly the reference loop's
// candidates in the same order, never probe more than it, and each
// surviving candidate's HasSupport must equal a materialised first tuple
// path. A pass under a pre-expired deadline drops nothing and probes
// nothing.
void ExpectPruningMatchesReference(
    const text::FullTextEngine& engine, const graph::SchemaGraph& graph,
    const std::vector<std::string>& first_row,
    const std::vector<std::vector<std::string>>& rows, Rng* rng,
    PruneCoverage* coverage) {
  auto search = core::SampleSearch(engine, graph, first_row);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  const query::PathExecutor executor(&engine);
  std::vector<core::CandidateMapping> actual = search->candidates;
  std::vector<core::CandidateMapping> expected = search->candidates;
  for (const std::vector<std::string>& row : rows) {
    std::vector<int> columns;
    for (size_t c = 0; c < row.size(); ++c) {
      columns.push_back(static_cast<int>(c));
    }
    rng->Shuffle(&columns);
    query::SampleMap row_samples;
    for (const int c : columns) {
      const std::string& value = row[static_cast<size_t>(c)];
      if (value.empty()) continue;
      SCOPED_TRACE(StrFormat("column %d sample '%s'", c, value.c_str()));
      row_samples[c] = value;
      ++coverage->keystrokes;
      if (SomeColumnHasTwoAttributes(actual, row_samples)) {
        ++coverage->multi_attribute_keystrokes;
      }

      {  // Pre-expired deadline: nothing dropped, zero probes.
        std::vector<core::CandidateMapping> stopped = actual;
        core::ExecutionContext ctx;
        ctx.set_deadline(core::SearchClock::now() -
                         std::chrono::milliseconds(1));
        EXPECT_EQ(core::PruneByAttribute(engine, c, value, &stopped, &ctx),
                  0u);
        size_t pruned = 1;
        ASSERT_TRUE(core::PruneByStructure(executor, row_samples, &stopped,
                                           &pruned, &ctx)
                        .ok());
        EXPECT_EQ(pruned, 0u);
        EXPECT_EQ(SerializeCandidates(stopped), SerializeCandidates(actual));
        EXPECT_EQ(ctx.probe_counters().Snapshot().probes, 0u);
      }

      core::ExecutionContext actual_ctx;
      core::ExecutionContext expected_ctx;
      size_t removed = core::PruneByAttribute(engine, c, value, &actual,
                                              &actual_ctx);
      EXPECT_EQ(removed, ReferencePruneByAttribute(engine, c, value,
                                                   &expected, &expected_ctx));
      if (row_samples.size() >= 2 && !actual.empty()) {
        ++coverage->structure_passes;
        for (const core::CandidateMapping& cand : actual) {
          auto support = executor.HasSupport(cand.mapping, row_samples);
          auto reference =
              ReferenceSupport(executor, cand.mapping, row_samples);
          ASSERT_TRUE(support.ok() && reference.ok());
          EXPECT_EQ(*support, *reference) << cand.mapping.Canonical();
          if (!*support) ++coverage->unsupported;
        }
        size_t structure_removed = 0;
        ASSERT_TRUE(core::PruneByStructure(executor, row_samples, &actual,
                                           &structure_removed, &actual_ctx)
                        .ok());
        auto reference_removed = ReferencePruneByStructure(
            executor, row_samples, &expected, &expected_ctx);
        ASSERT_TRUE(reference_removed.ok());
        EXPECT_EQ(structure_removed, *reference_removed);
        removed += structure_removed;
      }
      coverage->pruned += removed;
      ASSERT_EQ(SerializeCandidates(actual), SerializeCandidates(expected));
      const uint64_t probes = actual_ctx.probe_counters().Snapshot().probes;
      const uint64_t reference_probes =
          expected_ctx.probe_counters().Snapshot().probes;
      EXPECT_LE(probes, reference_probes);
      coverage->probes_saved += reference_probes - probes;
    }
  }
}

// The weave corpus's random databases: the search's first row is the
// corpus's sample tuple; the rows typed below it are two target rows each
// of the top-ranked candidate and of the last one, so some keystrokes
// confirm and some disprove.
TEST(PruneReferenceEquivalenceProperty, RandomDatabases) {
  // Six times the weave corpus: most random sample tuples leave few
  // candidates, and few keystrokes meet a column projected from two
  // attributes.
  constexpr int kDatabases = 300;
  PruneCoverage coverage;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const WideCorpusCase corpus(seed);
    auto search =
        core::SampleSearch(corpus.engine, corpus.graph, corpus.sample_tuple);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    if (search->candidates.empty()) continue;
    const query::PathExecutor executor(&corpus.engine);
    std::vector<std::vector<std::string>> rows;
    for (const core::CandidateMapping* cand :
         {&search->candidates.front(), &search->candidates.back()}) {
      auto target = executor.EvaluateTarget(cand->mapping, 8);
      ASSERT_TRUE(target.ok()) << target.status().ToString();
      for (size_t r = 0; r < target->size() && r < 2; ++r) {
        rows.push_back((*target)[target->size() - 1 - r]);
      }
    }
    Rng rng(60'000 + static_cast<uint64_t>(seed));
    ExpectPruningMatchesReference(corpus.engine, corpus.graph,
                                  corpus.sample_tuple, rows, &rng, &coverage);
  }
  EXPECT_GT(coverage.structure_passes, 0u);
  EXPECT_GT(coverage.pruned, 0u);
  EXPECT_GT(coverage.unsupported, 0u);
  EXPECT_GT(coverage.probes_saved, 0u);
  EXPECT_GT(coverage.multi_attribute_keystrokes, 0u);
}

// The movie tasks' replay scripts (m = 3..6): the first row searched, the
// next two typed below it, as a benchmark session does.
TEST(PruneReferenceEquivalenceProperty, MovieTaskReplayScripts) {
  const storage::Database db = datagen::MakeYahooMovies();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const graph::SchemaGraph graph(&db);
  auto task_sets = datagen::MakeYahooTaskSets(db);
  ASSERT_TRUE(task_sets.ok()) << task_sets.status().ToString();
  PruneCoverage coverage;
  Rng rng(61'000);
  for (const workload::ReplayScript& script :
       workload::BuildReplayScripts(engine, *task_sets, /*max_rows=*/3)) {
    if (script.rows.size() < 2) continue;
    SCOPED_TRACE("first row " + Join(script.rows[0], " | "));
    ExpectPruningMatchesReference(
        engine, graph, script.rows[0],
        {script.rows.begin() + 1, script.rows.end()}, &rng, &coverage);
  }
  EXPECT_GT(coverage.structure_passes, 0u);
  EXPECT_GT(coverage.pruned, 0u);
  EXPECT_GT(coverage.probes_saved, 0u);
  EXPECT_GT(coverage.multi_attribute_keystrokes, 0u);
}

// ------------- Row-scoped located rows == pass-local pruning ---------------

// What one row-reuse corpus exercised.
struct RowReuseCoverage {
  size_t overwrites = 0;    // a non-empty cell retyped with another value
  size_t clears = 0;        // a non-empty cell cleared
  size_t row_switches = 0;  // a pruning keystroke in another row than the last
  size_t resets = 0;
  size_t rejections = 0;
  size_t probes_saved = 0;  // reference probes - session probes
};

// The reference for core::Session's row-scoped located rows: the same
// grid, cleared-cell and irrelevant-sample rules, but every keystroke prunes
// with pass-local rows (the passes' null argument).
class PassLocalPruner {
 public:
  PassLocalPruner(const text::FullTextEngine* engine, size_t num_columns,
                  bool reject_irrelevant)
      : engine_(engine),
        executor_(engine),
        num_columns_(num_columns),
        reject_irrelevant_(reject_irrelevant) {}

  // Starts over from a first-row search's candidates.
  void Restart(std::vector<core::CandidateMapping> candidates) {
    grid_.clear();
    candidates_ = std::move(candidates);
  }

  // Types one cell below the first row; returns the probes it issued.
  uint64_t Input(size_t row, size_t col, const std::string& value) {
    if (row >= grid_.size()) {
      grid_.resize(row + 1, std::vector<std::string>(num_columns_));
    }
    grid_[row][col] = value;
    if (value.empty()) return 0;
    std::vector<core::CandidateMapping> snapshot;
    if (reject_irrelevant_) snapshot = candidates_;
    core::ExecutionContext ctx;
    core::PruneByAttribute(*engine_, static_cast<int>(col), value,
                           &candidates_, &ctx);
    query::SampleMap row_samples;
    for (size_t c = 0; c < num_columns_; ++c) {
      if (!grid_[row][c].empty()) {
        row_samples.emplace(static_cast<int>(c), grid_[row][c]);
      }
    }
    if (!candidates_.empty() && row_samples.size() >= 2) {
      EXPECT_TRUE(core::PruneByStructure(executor_, row_samples, &candidates_,
                                         nullptr, &ctx)
                      .ok());
    }
    if (reject_irrelevant_ && candidates_.empty() && !snapshot.empty()) {
      candidates_ = std::move(snapshot);
      grid_[row][col].clear();
    }
    return ctx.probe_counters().Snapshot().probes;
  }

  const std::vector<core::CandidateMapping>& candidates() const {
    return candidates_;
  }
  const std::string& cell(size_t row, size_t col) const {
    return grid_[row][col];
  }

 private:
  const text::FullTextEngine* engine_;
  const query::PathExecutor executor_;
  const size_t num_columns_;
  const bool reject_irrelevant_;
  std::vector<std::vector<std::string>> grid_;
  std::vector<core::CandidateMapping> candidates_;
};

// Drives a session through a seeded keystroke script below `first_row`:
// cells of rows 1-3 typed in random order, mostly from `target_rows` (so
// rows are confirmed), sometimes from `stray_values` (so some disprove),
// with overwrites of typed cells, cleared cells, switches between rows and
// an occasional Reset() that retypes the first row. After every keystroke
// the session's candidates equal the pass-local reference's, in order,
// and the session never probes more than it.
void ExpectRowReuseMatchesPassLocal(
    const text::FullTextEngine& engine, const graph::SchemaGraph& graph,
    const std::vector<std::string>& first_row,
    const std::vector<std::vector<std::string>>& target_rows,
    const std::vector<std::string>& stray_values, bool reject_irrelevant,
    size_t keystrokes, Rng* rng, RowReuseCoverage* coverage) {
  const size_t columns = first_row.size();
  std::vector<std::string> names;
  for (size_t c = 0; c < columns; ++c) names.push_back(StrFormat("c%zu", c));
  core::Session session(&engine, &graph, names);
  session.set_reject_irrelevant_samples(reject_irrelevant);
  PassLocalPruner reference(&engine, columns, reject_irrelevant);
  const auto search_first_row = [&] {
    for (size_t c = 0; c < columns; ++c) {
      ASSERT_TRUE(session.Input(0, c, first_row[c]).ok());
    }
    reference.Restart(session.candidates());
  };
  search_first_row();
  size_t row = 1;
  size_t last_pruned_row = 0;
  for (size_t k = 0; k < keystrokes; ++k) {
    if (rng->Bernoulli(0.03)) {
      session.Reset();
      search_first_row();
      ++coverage->resets;
      last_pruned_row = 0;
      continue;
    }
    if (rng->Bernoulli(0.25)) row = 1 + rng->Index(3);
    const size_t col = rng->Index(columns);
    std::string value;
    const double pick = rng->UniformDouble();
    if (pick < 0.1) {
      value = "";
    } else if (pick < 0.25 && !stray_values.empty()) {
      value = rng->Pick(stray_values);
    } else {
      // Row r mostly takes target row r-1's cell; any target row's cell
      // sometimes, which overwrites a typed cell with another value.
      const size_t target = rng->Bernoulli(0.8)
                                ? (row - 1) % target_rows.size()
                                : rng->Index(target_rows.size());
      value = target_rows[target][col];
    }
    const std::string before = session.cell(row, col);
    SCOPED_TRACE(StrFormat("keystroke %zu: (%zu, %zu) '%s' over '%s'", k, row,
                           col, value.c_str(), before.c_str()));
    ASSERT_TRUE(session.Input(row, col, value).ok());
    const uint64_t reference_probes = reference.Input(row, col, value);
    ASSERT_EQ(SerializeCandidates(session.candidates()),
              SerializeCandidates(reference.candidates()));
    ASSERT_EQ(session.cell(row, col), reference.cell(row, col));
    if (!before.empty() && value.empty()) ++coverage->clears;
    if (!before.empty() && !value.empty() && value != before) {
      ++coverage->overwrites;
    }
    if (value.empty()) continue;
    if (last_pruned_row != 0 && row != last_pruned_row) {
      ++coverage->row_switches;
    }
    last_pruned_row = row;
    if (session.last_input_rejected()) ++coverage->rejections;
    const uint64_t probes = session.context().trace().text_probes.probes;
    EXPECT_LE(probes, reference_probes);
    coverage->probes_saved += reference_probes - probes;
  }
}

// Figure 2 and the weave corpus's random FK databases, half of them with
// irrelevant-sample rejection on. The target rows are two of the
// top-ranked candidate's and two of the last one's; the stray values are
// random cells of the database.
TEST(RowReusePruningProperty, EqualsPassLocalPruningAfterEveryKeystroke) {
  RowReuseCoverage coverage;
  {
    SCOPED_TRACE("figure 2");
    const storage::Database db = testing::MakeFigure2Db();
    const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
    const graph::SchemaGraph graph(&db);
    const std::vector<std::vector<std::string>> target_rows = {
        {"Harry Potter", "David Yates"},
        {"Big Fish", "Tim Burton"},
        {"Harry Potter", "J. K. Rowling"},
        {"Big Fish", "John August"}};
    for (int seed = 0; seed < 8; ++seed) {
      Rng rng(62'000 + static_cast<uint64_t>(seed));
      ExpectRowReuseMatchesPassLocal(engine, graph, {"Avatar", "James Cameron"},
                                     target_rows, {"Avatar", "Tim", "Fish"},
                                     seed % 2 == 1, 60, &rng, &coverage);
    }
  }
  constexpr int kDatabases = 120;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const WideCorpusCase corpus(seed);
    auto search =
        core::SampleSearch(corpus.engine, corpus.graph, corpus.sample_tuple);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    if (search->candidates.empty()) continue;
    const query::PathExecutor executor(&corpus.engine);
    std::vector<std::vector<std::string>> target_rows;
    for (const core::CandidateMapping* cand :
         {&search->candidates.front(), &search->candidates.back()}) {
      auto target = executor.EvaluateTarget(cand->mapping, 8);
      ASSERT_TRUE(target.ok()) << target.status().ToString();
      for (size_t r = 0; r < target->size() && r < 2; ++r) {
        target_rows.push_back((*target)[target->size() - 1 - r]);
      }
    }
    if (target_rows.empty()) continue;
    Rng rng(63'000 + static_cast<uint64_t>(seed));
    std::vector<std::string> stray_values;
    for (int i = 0; i < 4; ++i) {
      stray_values.push_back(RandomSearchableValue(corpus.db, &rng));
    }
    ExpectRowReuseMatchesPassLocal(corpus.engine, corpus.graph,
                                   corpus.sample_tuple, target_rows,
                                   stray_values, seed % 2 == 1, 40, &rng,
                                   &coverage);
  }
  EXPECT_GT(coverage.overwrites, 0u);
  EXPECT_GT(coverage.clears, 0u);
  EXPECT_GT(coverage.row_switches, 0u);
  EXPECT_GT(coverage.resets, 0u);
  EXPECT_GT(coverage.rejections, 0u);
  EXPECT_GT(coverage.probes_saved, 0u);
}

// ------------- Accelerated text path == scan reference under cache chaos --

// Random samples drawn from real (typo'd, punctuated) values, probed while
// three failpoints misbehave: forced scan fallbacks at p=0.5, dropped
// probe-memo inserts at p=0.5, and full memo evictions at p=0.3. The
// accelerated candidate path must stay row-identical to the frozen
// reference throughout.
TEST(TextEquivalenceProperty, FastPathEqualsScanUnderInjectedEvictions) {
  FailpointPolicy fallback;
  fallback.action = FailAction::kTrigger;
  fallback.probability = 0.5;
  fallback.seed = 101;
  FailpointPolicy dropped_insert = fallback;
  dropped_insert.seed = 202;
  FailpointPolicy evict_all = fallback;
  evict_all.probability = 0.3;
  evict_all.seed = 303;

  for (uint64_t seed : {11u, 22u, 33u}) {
    SCOPED_TRACE("relation seed " + std::to_string(seed));
    const storage::Relation rel = MakeRandomTextRelation(seed, 200);
    // One index per policy the rounds draw: substring and fuzzy d = 0..2.
    const testing::OneAttributeIndex substring(
        rel, 0, text::MatchPolicy::Substring());
    const testing::OneAttributeIndex fuzzy[] = {
        testing::OneAttributeIndex(rel, 0, text::MatchPolicy::Fuzzy(0)),
        testing::OneAttributeIndex(rel, 0, text::MatchPolicy::Fuzzy(1)),
        testing::OneAttributeIndex(rel, 0, text::MatchPolicy::Fuzzy(2)),
    };
    Rng rng(seed * 31 + 1);

    ScopedFailpoint fp_fallback("text.lookup.fast_path", fallback);
    ScopedFailpoint fp_insert("text.probe_cache.insert", dropped_insert);
    ScopedFailpoint fp_evict("text.probe_cache.evict", evict_all);

    for (int round = 0; round < 80; ++round) {
      // Sample a (possibly mangled) fragment of a real value so probes hit.
      std::string sample = "zzz";
      const storage::RowId row =
          static_cast<storage::RowId>(rng.Index(rel.num_rows()));
      const storage::Value& v = rel.at(row, 0);
      if (!v.is_null() && !v.ToDisplayString().empty()) {
        const std::string text = v.ToDisplayString();
        const size_t start = rng.Index(text.size());
        const size_t len = 1 + rng.Index(text.size() - start);
        sample = text.substr(start, len);
      }
      const size_t pick = rng.Bernoulli(0.5) ? 3 : rng.Index(3);
      const testing::OneAttributeIndex& index =
          pick == 3 ? substring : fuzzy[pick];
      SCOPED_TRACE("round " + std::to_string(round) + " sample '" + sample +
                   "'");
      EXPECT_EQ(index.Candidates(sample), index.Scan(sample));
    }
  }
  EXPECT_TRUE(FailpointRegistry::Global().ArmedSites().empty());
}

// Engine-level version of the same property: FindOccurrences through the
// (chaos-ridden) probe memo equals a pristine engine's answer, attribute
// set and row set alike.
TEST(TextEquivalenceProperty, EngineOccurrencesUnaffectedByCacheChaos) {
  const storage::Database db = MakeUniversityDb(91);
  const text::FullTextEngine clean(&db, text::MatchPolicy::Substring());
  const text::FullTextEngine faulted(&db, text::MatchPolicy::Substring());

  // Compute the fault-free answers first — arming is process-global, so
  // the reference pass must finish before the chaos pass starts.
  Rng rng(555);
  std::vector<std::string> samples;
  std::vector<std::vector<text::Occurrence>> expected;
  for (int round = 0; round < 60; ++round) {
    samples.push_back(RandomSearchableValue(db, &rng));
    expected.push_back(clean.FindOccurrences(samples.back(), nullptr));
  }

  FailpointPolicy chaos;
  chaos.action = FailAction::kTrigger;
  chaos.probability = 0.5;
  chaos.seed = 404;
  ScopedFailpoint fp_fallback("text.lookup.fast_path", chaos);
  ScopedFailpoint fp_insert("text.probe_cache.insert", chaos);
  ScopedFailpoint fp_evict("text.probe_cache.evict", chaos);

  for (size_t round = 0; round < samples.size(); ++round) {
    const auto actual = faulted.FindOccurrences(samples[round], nullptr);
    ASSERT_EQ(actual.size(), expected[round].size())
        << "sample '" << samples[round] << "'";
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].attr, expected[round][i].attr);
      EXPECT_EQ(*actual[i].rows, *expected[round][i].rows);
    }
  }
}

// ------------- FindOccurrences == every attribute through the scan path --

// A library source whose string attributes share and split tokens (so the
// vocabulary's slot filter has work to do), with typo'd words,
// punctuation-only values and nulls, and two searchable numeric columns.
std::string RandomLibraryText(Rng* rng, const std::vector<std::string>& words) {
  if (rng->Bernoulli(0.05)) return "--";  // tokenizes to nothing
  std::string value;
  const size_t count = 1 + rng->Index(3);
  for (size_t w = 0; w < count; ++w) {
    std::string word = rng->Pick(words);
    if (rng->Bernoulli(0.1) && word.size() > 2) {
      word[rng->Index(word.size())] = 'q';  // plant a typo
    }
    if (!value.empty()) value += rng->Bernoulli(0.2) ? "-" : " ";
    value += word;
  }
  return value;
}

storage::Value RandomLibraryCell(Rng* rng,
                                 const std::vector<std::string>& words) {
  if (rng->Bernoulli(0.05)) return storage::Value::Null();
  return storage::Value(RandomLibraryText(rng, words));
}

storage::Database MakeLibraryDb(uint64_t seed) {
  using testing::IdAttr;
  using testing::StrAttr;
  const std::vector<std::string> shared = {"night", "harbor", "ed", "wood",
                                           "x", "2009"};
  std::vector<std::string> titles = {"avatar", "crimson", "story",
                                     "mapping"};
  std::vector<std::string> names = {"cameron", "potter", "aardvark",
                                    "weaver"};
  titles.insert(titles.end(), shared.begin(), shared.end());
  names.insert(names.end(), shared.begin(), shared.end());
  storage::Database db("library");
  db.AddRelation(storage::RelationSchema(
                     "book", {IdAttr("bid"), StrAttr("title"),
                              {"year", storage::ValueType::kInt64, true},
                              {"rating", storage::ValueType::kDouble, true},
                              StrAttr("blurb")}))
      .ValueOrDie();
  db.AddRelation(storage::RelationSchema(
                     "author", {IdAttr("aid"), StrAttr("name"),
                                StrAttr("city")}))
      .ValueOrDie();
  Rng rng(seed);
  for (int64_t b = 0; b < 60; ++b) {
    testing::AddRow(&db, "book",
                    {testing::I(b), RandomLibraryCell(&rng, titles),
                     testing::I(1990 + static_cast<int64_t>(rng.Index(30))),
                     storage::Value(0.5 * static_cast<double>(rng.Index(10))),
                     RandomLibraryCell(&rng, shared)});
  }
  for (int64_t a = 0; a < 40; ++a) {
    testing::AddRow(&db, "author",
                    {testing::I(a), RandomLibraryCell(&rng, names),
                     RandomLibraryCell(&rng, shared)});
  }
  return db;
}

// The reference FindOccurrences: every searchable attribute probed, the
// string ones through ScanCandidateRows + NoisyContains on a fresh
// index, the numeric ones (numeric samples under match_numeric)
// by a live-row scan; attributes with no match dropped. String attributes
// come first, as the engine's slots do.
class ReferenceLocator {
 public:
  ReferenceLocator(const storage::Database& db,
                   const text::MatchPolicy& policy)
      : db_(db), policy_(policy) {
    for (size_t r = 0; r < db.num_relations(); ++r) {
      const auto rel = static_cast<storage::RelationId>(r);
      const auto& attrs = db.relation(rel).schema().attributes();
      for (size_t a = 0; a < attrs.size(); ++a) {
        const text::AttributeRef ref{rel, static_cast<storage::AttributeId>(a)};
        if (!attrs[a].searchable) continue;
        if (attrs[a].type == storage::ValueType::kString) {
          strings_.push_back(ref);
          indexes_.emplace_back(db.relation(rel), ref.attribute, policy);
        } else {
          numerics_.push_back(ref);
        }
      }
    }
  }

  std::vector<std::pair<text::AttributeRef, std::vector<storage::RowId>>>
  Find(const std::string& sample) const {
    std::vector<std::pair<text::AttributeRef, std::vector<storage::RowId>>>
        out;
    for (size_t i = 0; i < strings_.size(); ++i) {
      const storage::Relation& rel = db_.relation(strings_[i].relation);
      std::vector<storage::RowId> rows;
      for (const storage::RowId row : indexes_[i].Scan(sample)) {
        if (text::NoisyContains(
                rel.at(row, strings_[i].attribute).ToDisplayString(), sample,
                policy_)) {
          rows.push_back(row);
        }
      }
      if (!rows.empty()) out.emplace_back(strings_[i], std::move(rows));
    }
    const std::optional<double> numeric = text::ParseNumeric(sample);
    if (!policy_.match_numeric || !numeric.has_value()) return out;
    for (const text::AttributeRef& ref : numerics_) {
      const storage::Relation& rel = db_.relation(ref.relation);
      std::vector<storage::RowId> rows;
      for (size_t r = 0; r < rel.num_rows(); ++r) {
        const auto row = static_cast<storage::RowId>(r);
        if (!rel.is_deleted(row) &&
            text::NumericEquals(rel.at(row, ref.attribute), *numeric)) {
          rows.push_back(row);
        }
      }
      if (!rows.empty()) out.emplace_back(ref, std::move(rows));
    }
    return out;
  }

 private:
  const storage::Database& db_;
  const text::MatchPolicy policy_;
  std::vector<text::AttributeRef> strings_;
  std::vector<text::AttributeRef> numerics_;
  std::vector<testing::OneAttributeIndex> indexes_;
};

// Samples that hit, miss, typo, cross token boundaries, carry no token or
// parse as numbers (including values the numeric columns hold).
std::vector<std::string> LibrarySamples(const storage::Database& db,
                                        uint64_t seed) {
  std::vector<std::string> samples = {"...",     "-",      "zzz",
                                      "2009",    "2003",   "1.5",
                                      "4",       "ed",     "night harbor",
                                      "avatar x", "aqatar", "rbor",
                                      "cameron wood", "quokka zyzzyva"};
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    std::string value = testing::RandomSearchableValue(db, &rng);
    if (value.empty()) continue;
    const size_t start = rng.Index(value.size());
    const size_t len = 1 + rng.Index(value.size() - start);
    samples.push_back(rng.Bernoulli(0.5) ? value : value.substr(start, len));
  }
  return samples;
}

void ExpectOccurrencesEqualReference(const text::FullTextEngine& engine,
                                     const ReferenceLocator& reference,
                                     const std::vector<std::string>& samples,
                                     const std::string& context) {
  for (const std::string& sample : samples) {
    SCOPED_TRACE(context + " sample '" + sample + "'");
    text::ProbeCounters counters;
    const std::vector<text::Occurrence> actual =
        engine.FindOccurrences(sample, &counters);
    const auto expected = reference.Find(sample);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].attr, expected[i].first);
      EXPECT_EQ(*actual[i].rows, expected[i].second);
    }
    // Only attributes that can hold the sample are probed, and every one
    // that holds it is.
    EXPECT_GE(counters.Snapshot().probes, actual.size());
    EXPECT_LE(counters.Snapshot().probes, engine.num_attr_slots());
  }
}

const text::MatchPolicy kEveryMode[] = {
    text::MatchPolicy::Exact(),       text::MatchPolicy::IgnoreCase(),
    text::MatchPolicy::Substring(),   text::MatchPolicy::TokenSubset(),
    text::MatchPolicy::Fuzzy(1),      text::MatchPolicy::Fuzzy(2),
    text::MatchPolicy::Substring().WithNumeric(),
    text::MatchPolicy::Fuzzy(1).WithNumeric(),
};

std::string PolicyName(const text::MatchPolicy& policy) {
  return StrFormat("mode=%d d=%zu numeric=%d", static_cast<int>(policy.mode),
                   policy.max_edit_distance,
                   static_cast<int>(policy.match_numeric));
}

TEST(TextEquivalenceProperty, FindOccurrencesEqualsEveryAttributeScan) {
  for (const uint64_t seed : {3u, 4u}) {
    const storage::Database db = MakeLibraryDb(seed);
    const std::vector<std::string> samples = LibrarySamples(db, seed + 100);
    for (const text::MatchPolicy& policy : kEveryMode) {
      const ReferenceLocator reference(db, policy);
      const text::FullTextEngine engine(&db, policy);
      const std::string context =
          StrFormat("seed=%llu %s", static_cast<unsigned long long>(seed),
                    PolicyName(policy).c_str());
      // Twice: the second pass answers from the probe memo.
      ExpectOccurrencesEqualReference(engine, reference, samples, context);
      ExpectOccurrencesEqualReference(engine, reference, samples,
                                      context + " warm");
    }
  }
}

// delta == rebuild through the vocabulary: a delta that inserts tokens new
// to the tenant (and new (token, attribute) pairs) and deletes rows, each
// delete dropping the tokens it empties out, answers like the scan
// reference over its own rows; and the base
// engine it was cloned from keeps answering over the old rows (the shared
// vocabulary was copied, not changed).
TEST(TextEquivalenceProperty, FindOccurrencesAfterDelta) {
  for (const text::MatchPolicy& policy : kEveryMode) {
    const std::string context = PolicyName(policy);
    const storage::Database base_db = MakeLibraryDb(9);
    const text::FullTextEngine base(&base_db, policy);
    const std::vector<std::string> samples = LibrarySamples(base_db, 77);
    const size_t base_bytes = base.index_bytes();
    // Warm the shared memo with the base's answers.
    const ReferenceLocator base_reference(base_db, policy);
    ExpectOccurrencesEqualReference(base, base_reference, samples,
                                    context + " base");

    const storage::RelationId book = base_db.FindRelation("book");
    const storage::RelationId author = base_db.FindRelation("author");
    storage::Database db = base_db.CloneCow({book, author});
    const std::vector<storage::Row> inserts = {
        {testing::I(60), testing::S("Quokka Zyzzyva"), testing::I(2003),
         storage::Value(1.5), testing::S("night")},
        // "cameron" was only an author token: a new (token, slot) pair.
        {testing::I(61), testing::S("Cameron Story"), testing::I(2009),
         storage::Value(4.0), testing::S("quokka")},
    };
    std::vector<storage::RowId> inserted;
    for (const storage::Row& row : inserts) {
      ASSERT_TRUE(db.mutable_relation(book)->Append(row).ok());
      inserted.push_back(
          static_cast<storage::RowId>(db.relation(book).num_rows() - 1));
    }
    ASSERT_TRUE(db.mutable_relation(author)
                    ->Append({testing::I(40), testing::S("Zyzzyva Ed"),
                              testing::S("harbor")})
                    .ok());
    const auto author_row =
        static_cast<storage::RowId>(db.relation(author).num_rows() - 1);
    const std::vector<storage::RowId> deleted = {0, 5, 17, 33};
    for (const storage::RowId row : deleted) {
      ASSERT_TRUE(db.mutable_relation(book)->Delete(row).ok());
    }

    auto delta = base.CloneForDelta(&db, {book, author}, 1);
    for (const storage::RowId row : inserted) {
      delta->ApplyRowInsert(book, row);
    }
    delta->ApplyRowInsert(author, author_row);
    for (const storage::RowId row : deleted) {
      delta->ApplyRowDelete(book, row);
    }
    const ReferenceLocator reference(db, policy);
    ExpectOccurrencesEqualReference(*delta, reference, samples,
                                    context + " delta");
    // The base still serves the old rows, from an unchanged vocabulary.
    EXPECT_EQ(base.index_bytes(), base_bytes) << context;
    ExpectOccurrencesEqualReference(base, base_reference, samples,
                                    context + " base after delta");
  }
}

}  // namespace
}  // namespace mweaver
