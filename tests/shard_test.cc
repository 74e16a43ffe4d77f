// Shard invariance: the property the whole intra-tenant sharding design
// stands on. A tenant snapshot whose engine holds N row-hash shard index
// sets must be OBSERVABLY IDENTICAL to the one-shard layout: same search
// results, same scores, same order, for every match mode, at every point
// of a streaming-update replay. Shards partition physical row ids, each
// shard posts its slice under the relation-global ids, and a probe
// concatenates the disjoint sorted per-shard sets and sorts once — so any
// divergence across shard counts is a sharding bug by construction, never
// data skew.
//
// The headline property test runs 50 seeded databases x 5 match policies
// with identical probes against shard counts {1, 2, 7, 8} (1 = the
// one-shard baseline; 2 and 7 exercise even and prime widths with empty and
// singleton shards at small scale; 8 is the width the benchmarks and the
// sharded-tenant scenario run). A second harness replays seeded
// insert/delete batches through TenantWriter against every shard count in
// lockstep and re-checks the property after every installed delta. Probes
// loop over the shards on the caller's thread; the pinned-reader test
// below runs concurrent readers against a writer, which keeps this suite a
// TSan workload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/hash_util.h"
#include "common/random.h"
#include "core/sample_search.h"
#include "storage/database.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/lookup_stats.h"
#include "text/match.h"

namespace mweaver::catalog {
namespace {

constexpr std::string_view kTenant = "shardy";
constexpr uint32_t kShardCounts[] = {1, 2, 7, 8};

// Canonical (mapping, score) list for byte-identical comparison.
std::vector<std::pair<std::string, double>> Ranked(
    const core::SearchResult& result) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(result.candidates.size());
  for (const core::CandidateMapping& c : result.candidates) {
    out.emplace_back(c.mapping.Canonical(), c.score);
  }
  return out;
}

struct NamedPolicy {
  const char* name;
  text::MatchPolicy policy;
};

std::vector<NamedPolicy> AllPolicies() {
  text::MatchPolicy numeric = text::MatchPolicy::Substring();
  numeric.match_numeric = true;
  return {
      {"exact", text::MatchPolicy::Exact()},
      {"ignore_case", text::MatchPolicy::IgnoreCase()},
      {"substring", text::MatchPolicy::Substring()},
      {"fuzzy", text::MatchPolicy::Fuzzy(1)},
      // Numeric matching drives the whole-database scan path for
      // non-indexed (numeric) attributes.
      {"substring+numeric", numeric},
  };
}

// Probes shared across every shard count of one (seed, policy) cell: two
// existing string values, one two-value sample, and one numeric literal
// (exercised by the +numeric policy, a clean miss elsewhere).
std::vector<std::vector<std::string>> MakeProbes(const storage::Database& db,
                                                 Rng* rng) {
  return {
      {testing::RandomSearchableValue(db, rng)},
      {testing::RandomSearchableValue(db, rng),
       testing::RandomSearchableValue(db, rng)},
      {"3"},
  };
}

// Verifies that every shard count serves byte-identical results for
// `probes` against its pinned snapshot.
void ExpectShardInvariant(const std::vector<SnapshotPtr>& snapshots,
                          const std::vector<std::vector<std::string>>& probes,
                          const std::string& context) {
  ASSERT_EQ(snapshots.size(), std::size(kShardCounts));
  for (const auto& probe : probes) {
    std::vector<std::pair<std::string, double>> baseline;
    for (size_t i = 0; i < snapshots.size(); ++i) {
      const SnapshotPtr& snap = snapshots[i];
      auto result =
          core::SampleSearch(snap->engine(), snap->graph(), probe, {});
      ASSERT_TRUE(result.ok()) << context << ": " << result.status();
      if (i == 0) {
        baseline = Ranked(*result);
        continue;
      }
      EXPECT_EQ(Ranked(*result), baseline)
          << context << ": " << kShardCounts[i]
          << "-shard results diverged from the one-shard layout for probe"
          << " '" << probe.front() << "'";
    }
  }
}

// ---------------------------------------------- search invariance --------

TEST(ShardInvarianceTest, FiftySeededDbsMatchMonolithicAcrossModes) {
  const std::vector<NamedPolicy> policies = AllPolicies();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    // Rotate the policy per seed: 50 cells spread over the 5 modes keeps
    // the sweep dense without multiplying runtime by the mode count.
    const NamedPolicy& mode = policies[seed % policies.size()];
    const std::string context = "seed " + std::to_string(seed) + " mode " +
                                mode.name;

    std::vector<std::unique_ptr<Catalog>> catalogs;
    std::vector<SnapshotPtr> snapshots;
    for (const uint32_t shards : kShardCounts) {
      CatalogOptions options;
      options.match_policy = mode.policy;
      options.shard_count = shards;
      catalogs.push_back(std::make_unique<Catalog>(options));
      auto published =
          catalogs.back()->Publish(kTenant, testing::MakeUniversityDb(seed));
      ASSERT_TRUE(published.ok()) << context << ": " << published.status();
      EXPECT_EQ((*published)->shard_count(), shards) << context;
      snapshots.push_back(*published);
    }

    Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
    ExpectShardInvariant(snapshots, MakeProbes(snapshots[0]->db(), &rng),
                         context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardInvarianceTest, Figure2MatchesAcrossEveryPolicy) {
  // The tiny Figure-2 db leaves several of 7 shards empty — the edge the
  // merge must treat as "no rows", not "no answer".
  for (const NamedPolicy& mode : AllPolicies()) {
    std::vector<std::unique_ptr<Catalog>> catalogs;
    std::vector<SnapshotPtr> snapshots;
    for (const uint32_t shards : kShardCounts) {
      CatalogOptions options;
      options.match_policy = mode.policy;
      options.shard_count = shards;
      catalogs.push_back(std::make_unique<Catalog>(options));
      snapshots.push_back(
          catalogs.back()->Publish(kTenant, testing::MakeFigure2Db())
              .ValueOrDie());
    }
    ExpectShardInvariant(snapshots,
                         {{"Avatar"},
                          {"Avatar", "James Cameron"},
                          {"Harry Potter", "David Yates"},
                          {"zzz-no-such-value"}},
                         std::string("figure2 mode ") + mode.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------- differential replay ------

// Drives the same seeded insert/delete interleaving through TenantWriter
// against every shard count in lockstep. All catalogs start from the
// identical database and apply identical batches, so their physical row-id
// spaces stay equal step by step — after every installed delta the
// snapshots must keep serving byte-identical results.
void RunShardedReplay(uint64_t seed, size_t steps) {
  std::vector<std::unique_ptr<Catalog>> catalogs;
  std::vector<std::unique_ptr<TenantWriter>> writers;
  for (const uint32_t shards : kShardCounts) {
    CatalogOptions options;
    options.shard_count = shards;
    catalogs.push_back(std::make_unique<Catalog>(options));
    ASSERT_TRUE(
        catalogs.back()->Publish(kTenant, testing::MakeUniversityDb(seed))
            .ok());
    writers.push_back(std::make_unique<TenantWriter>(catalogs.back().get()));
  }

  Rng rng(seed * 6364136223846793005ull + 3);
  for (size_t step = 0; step < steps; ++step) {
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    // Draw the batch from the BASELINE catalog's snapshot only, so every
    // catalog applies the exact same operations.
    const SnapshotPtr base = catalogs[0]->Pin(kTenant).ValueOrDie();
    UpdateBatch batch;
    const auto rel_id = static_cast<storage::RelationId>(
        rng.Index(base->db().num_relations()));
    const storage::Relation& rel = base->db().relation(rel_id);
    if (rel.num_live_rows() == 0) continue;
    auto row = static_cast<storage::RowId>(rng.Index(rel.num_rows()));
    bool found = false;
    for (size_t probe = 0; probe < rel.num_rows(); ++probe) {
      if (!rel.is_deleted(row)) {
        found = true;
        break;
      }
      row = static_cast<storage::RowId>((row + 1) % rel.num_rows());
    }
    if (!found) continue;
    if (rng.Bernoulli(0.35)) {
      batch.deletes.push_back(RowDelete{rel.name(), row});
    } else {
      batch.inserts.push_back(RowInsert{rel.name(), rel.row(row)});
    }

    std::vector<SnapshotPtr> snapshots;
    size_t baseline_shards_touched = 0;
    for (size_t i = 0; i < catalogs.size(); ++i) {
      auto applied = writers[i]->Apply(kTenant, batch);
      ASSERT_TRUE(applied.ok()) << context << ": " << applied.status();
      snapshots.push_back(applied->snapshot);
      if (i == 0) baseline_shards_touched = applied->shards_touched;
      // A one-row batch touches exactly one shard (unsharded tenants
      // report 1 — the whole bundle).
      EXPECT_EQ(applied->shards_touched, 1u) << context;
    }
    EXPECT_EQ(baseline_shards_touched, 1u) << context;

    ExpectShardInvariant(snapshots, MakeProbes(snapshots[0]->db(), &rng),
                         context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardedReplayTest, SeededReplaysMatchAcrossShardCounts) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RunShardedReplay(seed, /*steps=*/8);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------- reuse accounting ---------

TEST(ShardReuseTest, RepublishRebuildsOnlyChangedShards) {
  CatalogOptions options;
  options.shard_count = 7;
  Catalog catalog(options);
  const storage::Database source = testing::MakeUniversityDb(11);
  ASSERT_TRUE(catalog.Publish(kTenant, source.Clone()).ok());

  const auto rebuilt_last = [&]() -> uint64_t {
    for (const TenantInfo& info : catalog.ListTenants()) {
      if (info.name == kTenant) return info.shards_rebuilt_last;
    }
    return ~0ull;
  };
  // First publish has no prior bundle: all 7 shards are built.
  EXPECT_EQ(rebuilt_last(), 7u);

  // Republishing identical content reuses every shard.
  ASSERT_TRUE(catalog.Publish(kTenant, source.Clone()).ok());
  EXPECT_EQ(rebuilt_last(), 0u);

  // Appending one row dirties exactly the shard owning the new row id.
  storage::Database changed = source.Clone();
  const storage::RelationId prof = changed.FindRelation("prof");
  ASSERT_NE(prof, storage::kInvalidRelation);
  changed.mutable_relation(prof)->AppendUnchecked(
      source.relation(prof).row(0));
  auto published = catalog.Publish(kTenant, std::move(changed));
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(rebuilt_last(), 1u);

  // The partially reused engine still serves one-shard-identical results.
  CatalogOptions mono;
  Catalog baseline(mono);
  storage::Database changed_again = source.Clone();
  changed_again.mutable_relation(prof)->AppendUnchecked(
      source.relation(prof).row(0));
  auto mono_published =
      baseline.Publish(kTenant, std::move(changed_again));
  ASSERT_TRUE(mono_published.ok());
  Rng rng(99);
  for (int i = 0; i < 4; ++i) {
    const std::vector<std::string> probe{
        testing::RandomSearchableValue((*published)->db(), &rng)};
    auto sharded_result = core::SampleSearch((*published)->engine(),
                                             (*published)->graph(), probe, {});
    auto mono_result =
        core::SampleSearch((*mono_published)->engine(),
                           (*mono_published)->graph(), probe, {});
    ASSERT_TRUE(sharded_result.ok());
    ASSERT_TRUE(mono_result.ok());
    EXPECT_EQ(Ranked(*sharded_result), Ranked(*mono_result));
  }
}

// ---------------------------------------------- concurrent readers --------

// Readers hammer one pinned 7-shard snapshot while a writer mints
// shard-scoped minor epochs that share index sets and the probe memo with
// it — the designated TSan workload for the shard loop and the memo.
TEST(ShardConcurrencyTest, PinnedReadersStableUnderShardScopedUpdates) {
  CatalogOptions options;
  options.shard_count = 7;
  Catalog catalog(options);
  ASSERT_TRUE(
      catalog.Publish(kTenant, testing::MakeUniversityDb(42)).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> iterations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        auto pinned = catalog.Pin(kTenant);
        if (!pinned.ok()) continue;
        const SnapshotPtr snap = pinned.ValueOrDie();
        const std::vector<std::string> probe{
            testing::RandomSearchableValue(snap->db(), &rng)};
        auto first =
            core::SampleSearch(snap->engine(), snap->graph(), probe, {});
        ASSERT_TRUE(first.ok()) << first.status();
        auto again =
            core::SampleSearch(snap->engine(), snap->graph(), probe, {});
        ASSERT_TRUE(again.ok()) << again.status();
        EXPECT_EQ(Ranked(*first), Ranked(*again))
            << "pinned sharded snapshot changed under a concurrent update";
        iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  TenantWriter writer(&catalog);
  Rng rng(4242);
  size_t applied_count = 0;
  for (size_t step = 0; step < 25; ++step) {
    const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
    const auto rel_id = static_cast<storage::RelationId>(
        rng.Index(before->db().num_relations()));
    const storage::Relation& rel = before->db().relation(rel_id);
    if (rel.num_live_rows() == 0) continue;
    const auto row = static_cast<storage::RowId>(rng.Index(rel.num_rows()));
    if (rel.is_deleted(row)) continue;
    UpdateBatch batch;
    if (rng.Bernoulli(0.4)) {
      batch.deletes.push_back(RowDelete{rel.name(), row});
    } else {
      batch.inserts.push_back(RowInsert{rel.name(), rel.row(row)});
    }
    auto applied = writer.Apply(kTenant, batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->shards_touched, 1u);
    ++applied_count;
  }
  // The writer finishes its 25 tiny batches in about a millisecond — far
  // faster than one 7-shard search. Keep the bundle serving until every
  // reader has overlapped at least a few probes with the minted epochs
  // (bounded wait so a failed reader can't hang the test).
  for (int spin = 0; spin < 10000 && iterations.load() < 9u; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(applied_count, 10u);
  EXPECT_GE(iterations.load(), 9u);
}

// ---------------------------------------------- probe counters -----------

// A film relation with a searchable year column (numeric probes) next to an
// untouched person relation; 24 films spread over every one of 8 shards.
storage::Database MakeFilmDb() {
  storage::Database db("films");
  db.AddRelation(storage::RelationSchema(
                     "film", {testing::IdAttr("fid"), testing::StrAttr("title"),
                              {"year", storage::ValueType::kInt64,
                               /*searchable=*/true}}))
      .ValueOrDie();
  db.AddRelation(storage::RelationSchema(
                     "person",
                     {testing::IdAttr("pid"), testing::StrAttr("name")}))
      .ValueOrDie();
  const char* const kTitles[] = {"Avatar", "Big Fish", "Harry Potter",
                                 "Avatar Returns"};
  for (int64_t i = 0; i < 24; ++i) {
    testing::AddRow(&db, "film",
                    {testing::I(i), testing::S(kTitles[i % 4]),
                     testing::I(2000 + i % 10)});
  }
  testing::AddRow(&db, "person", {testing::I(0), testing::S("James Cameron")});
  testing::AddRow(&db, "person", {testing::I(1), testing::S("Tim Burton")});
  return db;
}

// One MatchingRows call is one probe and one memo hit or miss at any shard
// count; a punctuation-only sample is one all-rows fallback and is never
// memoized; a delta bumps only the touched relation's memo version.
TEST(ProbeCountersTest, ScriptedProbesCountTheSameAtOneAndEightShards) {
  std::vector<std::vector<storage::RowId>> baseline;
  for (const uint32_t shards : {1u, 8u}) {
    const std::string context = std::to_string(shards) + " shard(s)";
    CatalogOptions options;
    options.match_policy = text::MatchPolicy::Substring();
    options.match_policy.match_numeric = true;
    options.shard_count = shards;
    Catalog catalog(options);
    const SnapshotPtr before =
        catalog.Publish(kTenant, MakeFilmDb()).ValueOrDie();
    const storage::RelationId film = before->db().FindRelation("film");
    const text::AttributeRef title{film, 1};
    const text::AttributeRef year{film, 2};
    const text::AttributeRef name{before->db().FindRelation("person"), 1};

    text::ProbeCounters counters;
    std::vector<std::vector<storage::RowId>> rows;
    const auto probe = [&](const SnapshotPtr& snap,
                           const text::AttributeRef& attr,
                           const std::string& sample) {
      rows.push_back(*snap->engine().MatchingRows(attr, sample, &counters));
    };
    probe(before, title, "Avatar");  // miss
    probe(before, title, "Avatar");  // hit
    probe(before, title, "?!");      // miss, all-rows fallback, not memoized
    probe(before, title, "?!");      // miss again, second fallback
    probe(before, year, "2003");     // miss (numeric scan)
    probe(before, year, "2003");     // hit
    probe(before, name, "Cameron");  // miss

    TenantWriter writer(&catalog);
    UpdateBatch batch;
    batch.inserts.push_back(RowInsert{
        "film", {testing::I(24), testing::S("Avatar"), testing::I(2003)}});
    const SnapshotPtr after =
        writer.Apply(kTenant, batch).ValueOrDie().snapshot;
    probe(after, title, "Avatar");  // miss: the film relation's version moved
    probe(after, title, "Avatar");  // hit
    probe(after, name, "Cameron");  // hit: person was untouched

    const text::ProbeStats totals = counters.Snapshot();
    EXPECT_EQ(totals.probes, 10u) << context;
    EXPECT_EQ(totals.memo_hits, 4u) << context;
    EXPECT_EQ(totals.memo_misses, 6u) << context;
    EXPECT_EQ(totals.all_rows_fallbacks, 2u) << context;
    // The engine's lifetime totals count the same probes.
    const text::ProbeStats engine_totals = before->engine().probe_totals();
    EXPECT_EQ(engine_totals.probes, 7u) << context;
    EXPECT_EQ(engine_totals.memo_hits, 2u) << context;
    EXPECT_EQ(engine_totals.memo_misses, 5u) << context;
    EXPECT_EQ(engine_totals.all_rows_fallbacks, 2u) << context;

    EXPECT_EQ(rows[0].size(), 12u) << context;  // "Avatar" + "Avatar Returns"
    EXPECT_EQ(rows[7].size(), 13u) << context;  // plus the inserted film
    if (baseline.empty()) {
      baseline = rows;
    } else {
      EXPECT_EQ(rows, baseline) << context;
    }
  }
}

// ---------------------------------------------- delta ownership -----------

// ApplyRow* mutates indexes in place, so it must only ever reach a shard a
// CloneForDelta deep-copied: anything else is shared with a serving
// snapshot.
TEST(DeltaOwnershipDeathTest, RowOpsOutsideDeltaClonedShardsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const storage::Database db = MakeFilmDb();
  const storage::RelationId film = db.FindRelation("film");
  for (const uint32_t shards : {1u, 8u}) {
    // A built engine is what a publish serves: it takes no row ops.
    text::FullTextEngine engine(&db, text::MatchPolicy::Substring(), shards);
    EXPECT_DEATH(engine.ApplyRowInsert(film, 0), "did not delta-clone");
    EXPECT_DEATH(engine.ApplyRowDelete(film, 0), "did not delta-clone");
  }
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring(), 8);
  const uint32_t owned = ShardOfRow(0, 8);
  storage::RowId elsewhere = 1;
  while (ShardOfRow(elsewhere, 8) == owned) ++elsewhere;
  std::unique_ptr<text::FullTextEngine> delta =
      engine.CloneForDelta(&db, {film}, {owned}, 1);
  delta->ApplyRowDelete(film, 0);  // row 0's shard was delta-cloned
  EXPECT_DEATH(delta->ApplyRowDelete(film, elsewhere), "did not delta-clone");
}

}  // namespace
}  // namespace mweaver::catalog
