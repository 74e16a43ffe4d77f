// Property-based equivalence tests (seeded, replayable):
//
//   1. On many random mini-databases, the full TPW pipeline returns exactly
//      the mapping set of the brute-force naive baseline — the paper's
//      soundness + completeness claim, fuzzed across schema instances
//      instead of a handful of fixed seeds.
//   2. On the same corpus, the parallel search core (and the interactive
//      pruning path) returns byte-identical candidates to the serial path
//      at every thread count — parallelism is a pure timing optimization.
//   3. The weave (Algorithm 5) returns exactly the level sequences, stats
//      and ranked candidates of the clone-then-canonicalise reference in
//      reference_weave.h, at every truncation point; the pairwise mapping
//      paths of each column pair are pairwise non-isomorphic.
//   4. The accelerated text lookup equals the frozen linear-scan reference
//      row-for-row even while fault injection randomly forces scan
//      fallbacks and evicts/drops probe-memo entries mid-stream: cache
//      chaos may cost recomputation, never rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "baselines/naive_search.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/location_map.h"
#include "core/pairwise.h"
#include "core/ranking.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "core/weaver.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "reference_weave.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/inverted_index.h"
#include "text/match.h"
#include "workload/replay.h"

namespace mweaver {
namespace {

using ::mweaver::testing::CanonicalMappingSet;
using ::mweaver::testing::IdenticalTuplePaths;
using ::mweaver::testing::MakeRandomTextRelation;
using ::mweaver::testing::MakeUniversityDb;
using ::mweaver::testing::RandomSearchableValue;
using ::mweaver::testing::ReferenceCompleteTuplePaths;

// ------------------------- TPW == naive on 50+ random mini-databases ------

// Each seed builds a fresh random database (schema fixed, contents and FK
// wiring random), draws one random sample tuple, and demands exact mapping-
// set agreement between the accelerated pipeline and the brute-force
// baseline. Failures print the seed, so any counterexample replays alone.
TEST(TpwNaiveEquivalenceProperty, AgreesOnRandomDatabases) {
  constexpr int kDatabases = 50;
  for (int seed = 0; seed < kDatabases; ++seed) {
    SCOPED_TRACE("database seed " + std::to_string(seed));
    const storage::Database db =
        MakeUniversityDb(7'000 + static_cast<uint64_t>(seed),
                         /*people=*/8 + seed % 5);
    const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
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

// ----------------- Parallel TPW == serial TPW, byte for byte --------------

// Serializes everything a client can observe about one candidate list:
// canonical mapping, full-precision score, support count, and the retained
// example tuple paths in order. Any divergence between thread counts —
// ordering, a float summed in a different order, a dropped example — shows
// up as a byte difference.
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

// The parallel search core must be a pure timing optimization: on every
// random database, match mode, and target width, running with 2, 4 and 7
// workers returns byte-identical candidates to num_threads=1. Reuses the
// TPW==naive corpus generator, cycling the match policy so the fuzzy
// lookup paths parallelize too.
TEST(ParallelSerialEquivalenceProperty, ByteIdenticalOnRandomDatabases) {
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

    core::SearchOptions serial_options;
    serial_options.num_threads = 1;
    auto serial = core::SampleSearch(engine, graph, sample_tuple,
                                     serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    const std::string expected = SerializeCandidates(serial->candidates);

    for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
      SCOPED_TRACE("num_threads " + std::to_string(threads));
      core::SearchOptions parallel_options;
      parallel_options.num_threads = threads;
      auto parallel = core::SampleSearch(engine, graph, sample_tuple,
                                         parallel_options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(SerializeCandidates(parallel->candidates), expected)
          << "m=" << m << " first sample: '" << sample_tuple[0] << "'";
    }

    // The interactive pruning path must be thread-count invariant too:
    // drive two identical sessions (serial vs 4-way) through the same
    // first row and refinement inputs. The second-row inputs exercise both
    // PruneByAttribute (first cell) and PruneByStructure (second cell,
    // once the row carries two samples) over parallel candidate shards.
    core::SearchOptions four_way = serial_options;
    four_way.num_threads = 4;
    const std::vector<std::string> columns(static_cast<size_t>(m), "col");
    core::Session serial_session(&engine, &graph, columns, serial_options);
    core::Session parallel_session(&engine, &graph, columns, four_way);
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(serial_session.Input(0, i, sample_tuple[i]).ok());
      ASSERT_TRUE(parallel_session.Input(0, i, sample_tuple[i]).ok());
    }
    const std::string refine_a = RandomSearchableValue(db, &rng);
    const std::string refine_b = RandomSearchableValue(db, &rng);
    for (size_t col = 0; col < 2; ++col) {
      const std::string& value = col == 0 ? refine_a : refine_b;
      SCOPED_TRACE("refine col " + std::to_string(col) + " '" + value + "'");
      ASSERT_TRUE(serial_session.Input(1, col, value).ok());
      ASSERT_TRUE(parallel_session.Input(1, col, value).ok());
      EXPECT_EQ(SerializeCandidates(parallel_session.candidates()),
                SerializeCandidates(serial_session.candidates()));
    }
  }
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
    const text::InvertedIndex index(rel, 0);
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
      const text::MatchPolicy policy =
          rng.Bernoulli(0.5) ? text::MatchPolicy::Substring()
                             : text::MatchPolicy::Fuzzy(rng.Index(3));
      SCOPED_TRACE("round " + std::to_string(round) + " sample '" + sample +
                   "'");
      EXPECT_EQ(index.CandidateRows(sample, policy, nullptr),
                index.ScanCandidateRows(sample, policy));
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

}  // namespace
}  // namespace mweaver
