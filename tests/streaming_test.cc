// Streaming updates: the differential replay harness. A seeded driver
// interleaves row inserts, row deletes, searches, and full publishes
// against a live tenant, and after EVERY step rebuilds the text engine
// and schema graph from scratch over the live snapshot's database. The
// invariant under test is the whole point of incremental maintenance:
// search results served off the incrementally maintained index bundle
// are byte-identical (same canonical mappings, same scores, same order)
// to results off a clean rebuild — at every intermediate state, not just
// at the end.
//
// The multi-threaded variants ({1,2,4} searcher threads) run the same
// replay while readers pin and search concurrently; they are designated
// TSan workloads (labels "stress;tsan").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/random.h"
#include "core/sample_search.h"
#include "datagen/movie_gen.h"
#include "graph/schema_graph.h"
#include "service/mapping_service.h"
#include "storage/database.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/lookup_stats.h"
#include "text/match.h"

namespace mweaver::catalog {
namespace {

constexpr std::string_view kTenant = "stream";

// Canonical forms + scores of a ranked candidate list, for byte-identical
// comparison between the live pipeline and the rebuilt oracle.
std::vector<std::pair<std::string, double>> Ranked(
    const core::SearchResult& result) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(result.candidates.size());
  for (const core::CandidateMapping& c : result.candidates) {
    out.emplace_back(c.mapping.Canonical(), c.score);
  }
  return out;
}

// The from-scratch oracle: a fresh engine + graph over the live
// snapshot's database. The database content (including tombstone holes
// and stable row ids) is shared, so any divergence is the incremental
// index maintenance's fault, not the data's.
void ExpectMatchesRebuild(const Snapshot& live,
                          const std::vector<std::vector<std::string>>& probes,
                          const std::string& context) {
  text::FullTextEngine rebuilt(&live.db(), live.engine().policy());
  graph::SchemaGraph graph(&live.db());
  for (const auto& probe : probes) {
    auto live_result =
        core::SampleSearch(live.engine(), live.graph(), probe, {});
    auto oracle_result = core::SampleSearch(rebuilt, graph, probe, {});
    ASSERT_TRUE(live_result.ok()) << context << ": " << live_result.status();
    ASSERT_TRUE(oracle_result.ok())
        << context << ": " << oracle_result.status();
    EXPECT_EQ(Ranked(*live_result), Ranked(*oracle_result))
        << context << ": live delta index diverged from clean rebuild for"
        << " probe '" << probe.front() << "'";
  }
}

// Draws a live (non-tombstoned) row of a non-empty relation, or returns
// false when the snapshot has none left.
bool PickLiveRow(const storage::Database& db, Rng* rng,
                 storage::RelationId* rel_out, storage::RowId* row_out) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto rel_id =
        static_cast<storage::RelationId>(rng->Index(db.num_relations()));
    const storage::Relation& rel = db.relation(rel_id);
    if (rel.num_live_rows() == 0) continue;
    for (int inner = 0; inner < 64; ++inner) {
      const auto row =
          static_cast<storage::RowId>(rng->Index(rel.num_rows()));
      if (rel.is_deleted(row)) continue;
      *rel_out = rel_id;
      *row_out = row;
      return true;
    }
  }
  return false;
}

// Probe set for one differential check: one single-value sample and one
// two-value sample (the latter exercises pairwise generation + weaving),
// both drawn from values that exist in the database so the location map
// is non-trivial.
std::vector<std::vector<std::string>> MakeProbes(const storage::Database& db,
                                                 Rng* rng) {
  return {
      {testing::RandomSearchableValue(db, rng)},
      {testing::RandomSearchableValue(db, rng),
       testing::RandomSearchableValue(db, rng)},
  };
}

// Overwrites one character of one non-empty string cell of `row` (if it
// has any) with 'q', so the row brings a token its relation's dictionary
// has most likely never seen.
void TypoOneStringCell(storage::Row* row, Rng* rng) {
  std::vector<size_t> cells;
  for (size_t c = 0; c < row->size(); ++c) {
    const storage::Value& v = (*row)[c];
    if (v.type() == storage::ValueType::kString && !v.AsString().empty()) {
      cells.push_back(c);
    }
  }
  if (cells.empty()) return;
  storage::Value& cell = (*row)[cells[rng->Index(cells.size())]];
  std::string text = cell.AsString();
  text[rng->Index(text.size())] = 'q';
  cell = testing::S(text);
}

// One seeded replay: `steps` random operations against a live tenant
// whose catalog matches under `policy`, with a differential check after
// every step. A delete drops every token it empties out of its index, and
// a later insert re-files it under the vocabulary's existing id. Returns
// the number of update batches applied (so callers can assert the replay
// actually exercised the streaming path).
size_t RunReplay(
    uint64_t seed, size_t steps,
    const text::MatchPolicy& policy = text::MatchPolicy::Substring()) {
  CatalogOptions options;
  options.match_policy = policy;
  Catalog catalog(options);
  EXPECT_TRUE(
      catalog.Publish(kTenant, testing::MakeUniversityDb(seed)).ok());
  TenantWriter writer(&catalog);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

  uint64_t expected_epoch = 1;
  uint64_t expected_minor = 0;
  size_t updates_applied = 0;

  for (size_t step = 0; step < steps; ++step) {
    const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
    const int op = rng.UniformInt(0, 9);
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);

    if (op < 4) {
      // Insert batch: 1-3 copies of existing live rows, about half with a
      // typo'd string cell. A verbatim copy adds no dictionary token; a
      // typo'd one runs the candidate table's incremental AddToken path.
      // (The university schema declares no primary key, so copies and
      // near-copies are both valid rows.)
      UpdateBatch batch;
      const size_t n = 1 + rng.Index(3);
      for (size_t i = 0; i < n; ++i) {
        storage::RelationId rel_id;
        storage::RowId row;
        if (!PickLiveRow(before->db(), &rng, &rel_id, &row)) break;
        const storage::Relation& rel = before->db().relation(rel_id);
        storage::Row copy = rel.row(row);
        if (rng.Bernoulli(0.5)) TypoOneStringCell(&copy, &rng);
        batch.inserts.push_back(RowInsert{rel.name(), std::move(copy)});
      }
      if (batch.empty()) continue;
      auto applied = writer.Apply(kTenant, batch);
      EXPECT_TRUE(applied.ok()) << context << ": " << applied.status();
      if (!applied.ok()) return updates_applied;
      EXPECT_EQ(applied->rows_inserted, batch.inserts.size());
      ++expected_minor;
      ++updates_applied;
    } else if (op < 7) {
      // Delete batch: 1-2 live rows, anywhere in the database.
      UpdateBatch batch;
      const size_t n = 1 + rng.Index(2);
      for (size_t i = 0; i < n; ++i) {
        storage::RelationId rel_id;
        storage::RowId row;
        if (!PickLiveRow(before->db(), &rng, &rel_id, &row)) break;
        const storage::Relation& rel = before->db().relation(rel_id);
        // Don't double-delete within one batch.
        bool duplicate = false;
        for (const RowDelete& d : batch.deletes) {
          if (d.relation == rel.name() && d.row == row) duplicate = true;
        }
        if (!duplicate) batch.deletes.push_back(RowDelete{rel.name(), row});
      }
      if (batch.empty()) continue;
      auto applied = writer.Apply(kTenant, batch);
      EXPECT_TRUE(applied.ok()) << context << ": " << applied.status();
      if (!applied.ok()) return updates_applied;
      EXPECT_EQ(applied->rows_deleted, batch.deletes.size());
      ++expected_minor;
      ++updates_applied;
    } else if (op < 9) {
      // Search-only step: no state change, but the differential check
      // below still runs against fresh probes.
    } else {
      // Full publish: a new epoch from a different generation of the
      // dataset. Minor epoch resets; all streaming state starts over.
      auto published = catalog.Publish(
          kTenant, testing::MakeUniversityDb(seed * 131 + step));
      EXPECT_TRUE(published.ok()) << context << ": " << published.status();
      if (!published.ok()) return updates_applied;
      ++expected_epoch;
      expected_minor = 0;
    }

    const SnapshotPtr live = catalog.Pin(kTenant).ValueOrDie();
    EXPECT_EQ(live->epoch(), expected_epoch) << context;
    EXPECT_EQ(live->minor_epoch(), expected_minor) << context;
    ExpectMatchesRebuild(*live, MakeProbes(live->db(), &rng), context);
    if (::testing::Test::HasFatalFailure()) return updates_applied;
  }
  return updates_applied;
}

// ------------------------------------------- differential replay ---------

// The headline test: 50 seeded interleavings of insert/delete/search/
// publish, each checked step by step against the from-scratch oracle.
TEST(StreamingDifferentialTest, FiftySeededReplaysMatchCleanRebuild) {
  size_t total_updates = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    total_updates += RunReplay(seed, /*steps=*/10);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The op mix makes update-free replays astronomically unlikely; a low
  // count here means the driver regressed, not the index.
  EXPECT_GT(total_updates, 150u);
}

// The same replay under fuzzy matching, whose indexes carry a deletion
// table instead of a gram table: typo'd inserts grow it incrementally,
// and every step must still match an engine built from scratch.
TEST(StreamingDifferentialTest, FuzzyReplaysMatchCleanRebuild) {
  size_t total_updates = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    total_updates += RunReplay(seed, /*steps=*/10, text::MatchPolicy::Fuzzy(1));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(total_updates, 30u);
}

// Deletes that empty out whole posting lists, then inserts that refill
// them — the resurrection path where a stale index would double-count.
// The delete drops "avatar" from the title index, so the re-insert files
// it back. Then one batch inserts a row whose title brings a token new to
// the tenant and deletes that same row, and a later batch re-inserts it.
TEST(StreamingDifferentialTest, DeleteThenReinsertMatchesCleanRebuild) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, testing::MakeFigure2Db()).ok());
  TenantWriter writer(&catalog);

  const SnapshotPtr base = catalog.Pin(kTenant).ValueOrDie();
  const storage::RelationId movie = base->db().FindRelation("movie");
  ASSERT_NE(movie, storage::kInvalidRelation);
  const storage::Row avatar = base->db().relation(movie).row(0);

  // Delete "Avatar"; its postings must stop matching.
  UpdateBatch del;
  del.deletes.push_back(RowDelete{"movie", 0});
  ASSERT_TRUE(writer.Apply(kTenant, del).ok());
  SnapshotPtr live = catalog.Pin(kTenant).ValueOrDie();
  ExpectMatchesRebuild(*live, {{"Avatar"}, {"Avatar", "James Cameron"}},
                       "after delete");

  // Re-insert the identical row under a fresh id; matches must resurface
  // identically to a clean rebuild (fresh row id, not the tombstoned 0).
  UpdateBatch ins;
  ins.inserts.push_back(RowInsert{"movie", avatar});
  auto applied = writer.Apply(kTenant, ins);
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied->inserted_rows.size(), 1u);
  EXPECT_EQ(applied->inserted_rows[0], 3);  // 3 physical rows before it
  live = catalog.Pin(kTenant).ValueOrDie();
  EXPECT_TRUE(live->db().relation(movie).is_deleted(0));
  ExpectMatchesRebuild(*live, {{"Avatar"}, {"Avatar", "James Cameron"}},
                       "after re-insert");

  // Insert and delete one row in the same batch. The append takes the
  // next physical id, and the delete names it: the delta files "zyzzyva"
  // into the vocabulary and the title index, then drops it from the index.
  const storage::Row zyzzyva = {testing::I(3), testing::S("Zyzzyva")};
  const storage::RowId transient =
      static_cast<storage::RowId>(live->db().relation(movie).num_rows());
  UpdateBatch flicker;
  flicker.inserts.push_back(RowInsert{"movie", zyzzyva});
  flicker.deletes.push_back(RowDelete{"movie", transient});
  applied = writer.Apply(kTenant, flicker);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->inserted_rows, std::vector<storage::RowId>{transient});
  live = catalog.Pin(kTenant).ValueOrDie();
  EXPECT_TRUE(live->db().relation(movie).is_deleted(transient));
  const int title_slot = live->engine().AttrSlot({movie, 1});
  ASSERT_GE(title_slot, 0);
  const std::optional<text::Vocabulary::TokenId> first_id =
      live->engine().vocabulary().Find("zyzzyva",
                                       static_cast<uint32_t>(title_slot));
  ASSERT_TRUE(first_id.has_value());
  ExpectMatchesRebuild(*live, {{"Zyzzyva"}, {"Avatar"}},
                       "after insert and delete in one batch");

  // A later re-insert files the token back under its first id.
  UpdateBatch again;
  again.inserts.push_back(RowInsert{"movie", zyzzyva});
  applied = writer.Apply(kTenant, again);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->inserted_rows,
            std::vector<storage::RowId>{transient + 1});
  live = catalog.Pin(kTenant).ValueOrDie();
  EXPECT_EQ(live->engine().vocabulary().Find(
                "zyzzyva", static_cast<uint32_t>(title_slot)),
            first_id);
  ExpectMatchesRebuild(*live, {{"Zyzzyva"}, {"Zyzzyva", "Avatar"}},
                       "after re-inserting the dropped token");
}

// A batch that fails mid-validation (unknown relation after valid
// entries) must leave no trace: same epoch, same results.
TEST(StreamingDifferentialTest, FailedBatchLeavesNoTrace) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, testing::MakeFigure2Db()).ok());
  TenantWriter writer(&catalog);

  const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
  UpdateBatch batch;
  batch.inserts.push_back(
      RowInsert{"movie", before->db().relation(0).row(0)});
  batch.deletes.push_back(RowDelete{"no_such_relation", 0});
  auto applied = writer.Apply(kTenant, batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);

  const SnapshotPtr after = catalog.Pin(kTenant).ValueOrDie();
  EXPECT_EQ(after.get(), before.get());  // the very same snapshot object
  EXPECT_EQ(after->minor_epoch(), 0u);
}

// An insert that repeats a primary key — of a live row, or of an earlier
// insert in the same batch — is rejected whole: InvalidArgument, and the
// serving snapshot is the very same object. Without the check a verbatim
// copy of a row slipped in as a second entity under the same key, and one
// 6-column search over such a duplicated row ran for ~90 s and 2.6 GB.
TEST(StreamingDifferentialTest, DuplicatePrimaryKeyInsertRejected) {
  datagen::YahooMoviesConfig config;
  config.num_movies = 30;
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, datagen::MakeYahooMovies(config)).ok());
  TenantWriter writer(&catalog);
  const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
  const storage::RelationId movie = before->db().FindRelation("movie");
  ASSERT_NE(movie, storage::kInvalidRelation);
  const storage::Relation& rel = before->db().relation(movie);
  ASSERT_EQ(rel.schema().primary_key(), std::vector<storage::AttributeId>{0});
  int64_t max_key = 0;
  for (storage::RowId r = 0; r < static_cast<storage::RowId>(rel.num_rows());
       ++r) {
    max_key = std::max(max_key, rel.at(r, 0).AsInt64());
  }
  storage::Row fresh = rel.row(3);
  fresh[0] = storage::Value(max_key + 1);

  const auto expect_rejected = [&](const UpdateBatch& batch,
                                   const std::string& context) {
    SCOPED_TRACE(context);
    auto applied = writer.Apply(kTenant, batch);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(applied.status().ToString().find("primary key"),
              std::string::npos)
        << applied.status();
    const SnapshotPtr after = catalog.Pin(kTenant).ValueOrDie();
    EXPECT_EQ(after.get(), before.get());
    EXPECT_EQ(after->minor_epoch(), 0u);
  };

  UpdateBatch verbatim;  // a fresh row first: the whole batch must go
  verbatim.inserts.push_back(RowInsert{"movie", fresh});
  verbatim.inserts.push_back(RowInsert{"movie", rel.row(3)});
  expect_rejected(verbatim, "repeats a live row's key");

  UpdateBatch twice;
  twice.inserts.push_back(RowInsert{"movie", fresh});
  twice.inserts.push_back(RowInsert{"movie", fresh});
  expect_rejected(twice, "repeats an earlier insert's key");

  // A fresh key goes in; once its row is deleted, the key is free again.
  UpdateBatch once;
  once.inserts.push_back(RowInsert{"movie", fresh});
  auto inserted = writer.Apply(kTenant, once);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  UpdateBatch remove;
  remove.deletes.push_back(RowDelete{"movie", inserted->inserted_rows[0]});
  ASSERT_TRUE(writer.Apply(kTenant, remove).ok());
  auto reinserted = writer.Apply(kTenant, once);
  ASSERT_TRUE(reinserted.ok()) << reinserted.status();
  EXPECT_EQ(catalog.Pin(kTenant).ValueOrDie()->minor_epoch(), 3u);
}

// A batch may delete a live row and re-insert its key: the key check looks
// at the rows that are live once the whole batch is applied. For the same
// reason a batch that inserts one key twice and deletes one of the two
// copies is accepted.
TEST(StreamingDifferentialTest, DeleteThenReinsertKeyInOneBatch) {
  datagen::YahooMoviesConfig config;
  config.num_movies = 30;
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, datagen::MakeYahooMovies(config)).ok());
  TenantWriter writer(&catalog);
  const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
  const storage::RelationId movie = before->db().FindRelation("movie");
  ASSERT_NE(movie, storage::kInvalidRelation);
  const storage::Row replaced = before->db().relation(movie).row(3);

  UpdateBatch replace;  // the insert comes first; deletes still apply
  replace.inserts.push_back(RowInsert{"movie", replaced});
  replace.deletes.push_back(RowDelete{"movie", 3});
  auto applied = writer.Apply(kTenant, replace);
  ASSERT_TRUE(applied.ok()) << applied.status();
  const storage::Relation& after = applied->snapshot->db().relation(movie);
  EXPECT_TRUE(after.is_deleted(3));
  size_t live_with_key = 0;
  for (storage::RowId r = 0; r < static_cast<storage::RowId>(after.num_rows());
       ++r) {
    if (!after.is_deleted(r) && after.at(r, 0) == replaced[0]) ++live_with_key;
  }
  EXPECT_EQ(live_with_key, 1u);

  // Two inserts of one key, one of them deleted in the same batch.
  UpdateBatch twice_then_one;
  storage::Row fresh = replaced;
  fresh[0] = storage::Value(int64_t{1} << 40);
  twice_then_one.inserts.push_back(RowInsert{"movie", fresh});
  twice_then_one.inserts.push_back(RowInsert{"movie", fresh});
  twice_then_one.deletes.push_back(
      RowDelete{"movie", static_cast<storage::RowId>(after.num_rows())});
  auto deduped = writer.Apply(kTenant, twice_then_one);
  ASSERT_TRUE(deduped.ok()) << deduped.status();
  EXPECT_EQ(catalog.Pin(kTenant).ValueOrDie()->minor_epoch(), 2u);
}

// Link tables are keyed by their (left, right) pair, not by their first
// column, which repeats by design: a new link for an existing movie goes
// in, a repeated link is rejected.
TEST(StreamingDifferentialTest, NewLinkForExistingEntityAccepted) {
  datagen::YahooMoviesConfig config;
  config.num_movies = 30;
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, datagen::MakeYahooMovies(config)).ok());
  TenantWriter writer(&catalog);
  const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
  const storage::Database& db = before->db();
  const storage::RelationId haskeyword = db.FindRelation("haskeyword");
  const storage::RelationId keyword = db.FindRelation("keyword");
  ASSERT_NE(haskeyword, storage::kInvalidRelation);
  ASSERT_NE(keyword, storage::kInvalidRelation);
  const storage::Relation& links = db.relation(haskeyword);
  ASSERT_EQ(links.schema().primary_key(),
            (std::vector<storage::AttributeId>{0, 1}));

  const storage::Value movie_id(int64_t{5});
  std::set<storage::Value> linked;
  for (storage::RowId r = 0; r < static_cast<storage::RowId>(links.num_rows());
       ++r) {
    if (links.at(r, 0) == movie_id) linked.insert(links.at(r, 1));
  }
  ASSERT_GE(linked.size(), 2u) << "movie 5 should already have keywords";
  std::optional<storage::Value> unlinked;
  const storage::Relation& keywords = db.relation(keyword);
  for (storage::RowId r = 0;
       !unlinked && r < static_cast<storage::RowId>(keywords.num_rows());
       ++r) {
    if (linked.count(keywords.at(r, 0)) == 0) unlinked = keywords.at(r, 0);
  }
  ASSERT_TRUE(unlinked.has_value());

  UpdateBatch add;
  add.inserts.push_back(RowInsert{"haskeyword", {movie_id, *unlinked}});
  auto applied = writer.Apply(kTenant, add);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(applied->snapshot->db().CheckReferentialIntegrity().ok());

  UpdateBatch repeat;
  repeat.inserts.push_back(
      RowInsert{"haskeyword", {movie_id, *linked.begin()}});
  auto rejected = writer.Apply(kTenant, repeat);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Pin(kTenant).ValueOrDie().get(),
            applied->snapshot.get());
}

// A session's cached-search key must be fingerprinted from the snapshot
// it PINNED, not from the tenant's current serving state. If the caching
// hook consulted the catalog at request time, a streaming update landing
// between two identical keystrokes would (a) miss the still-valid cached
// answer and (b) re-insert a result computed on the pinned minor-0 bundle
// under the minor-1 key — poisoning every fresh session with a stale
// answer. The service captures the key prefix at pin time; this locks the
// epoch accounting in place.
TEST(StreamingCacheFingerprintTest, PinnedSessionKeysCacheAtPinTimeState) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kTenant, testing::MakeFigure2Db()).ok());
  service::MappingService svc(&catalog);

  // Session pins (epoch 1, minor 0) and fills the cache for "Avatar".
  auto session = svc.CreateSession(kTenant, {"Name"});
  ASSERT_TRUE(session.ok());
  service::InputRequest request;
  request.session_id = *session;
  request.value = "Avatar";
  const service::RequestResult first = svc.Call(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_FALSE(first.cache_hit);

  // A sibling session pins the same (epoch 1, minor 0) state BEFORE the
  // update lands; its prefix is captured now, at pin time.
  auto sibling = svc.CreateSession(kTenant, {"Name"});
  ASSERT_TRUE(sibling.ok());

  // A streaming update bumps the tenant to minor epoch 1 behind the
  // pinned sessions' backs.
  TenantWriter writer(&catalog);
  const SnapshotPtr base = catalog.Pin(kTenant).ValueOrDie();
  const storage::RelationId movie = base->db().FindRelation("movie");
  ASSERT_NE(movie, storage::kInvalidRelation);
  UpdateBatch batch;
  batch.inserts.push_back(RowInsert{"movie", base->db().relation(movie).row(0)});
  ASSERT_TRUE(writer.Apply(kTenant, batch).ok());
  ASSERT_EQ(catalog.Pin(kTenant).ValueOrDie()->minor_epoch(), 1u);

  // The same keystroke on the sibling session replays the pinned-state
  // entry: its key prefix was fixed at pin time (minor 0), so the
  // minor-epoch bump is invisible to it and it shares the first
  // session's cache line.
  request.session_id = *sibling;
  const service::RequestResult second = svc.Call(request);
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_TRUE(second.cache_hit);

  // A FRESH session pins minor 1: its identical keystroke must land in a
  // rolled-over key space — a hit here would mean the pinned session
  // leaked its minor-0 answer into the minor-1 key.
  auto fresh = svc.CreateSession(kTenant, {"Name"});
  ASSERT_TRUE(fresh.ok());
  request.session_id = *fresh;
  const service::RequestResult third = svc.Call(request);
  ASSERT_TRUE(third.status.ok()) << third.status;
  EXPECT_FALSE(third.cache_hit);
}

// ------------------------------------------- concurrent replay -----------

// The same replay under concurrent readers: searcher threads pin the
// current snapshot and search it while the writer thread applies update
// batches and occasional publishes. Each reader asserts that repeated
// searches against ITS pinned snapshot stay byte-identical no matter how
// many minor epochs the writer mints meanwhile; the writer runs the
// differential oracle on every installed delta. Threads {1,2,4} per the
// streaming-update test plan; designated TSan workload.
class StreamingConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingConcurrencyTest, PinnedReadersStableUnderUpdateChurn) {
  const int num_readers = GetParam();
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Publish(kTenant, testing::MakeUniversityDb(99)).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> reader_iterations{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_readers));
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        auto pinned = catalog.Pin(kTenant);
        if (!pinned.ok()) continue;
        const SnapshotPtr snap = pinned.ValueOrDie();
        const std::vector<std::string> probe{
            testing::RandomSearchableValue(snap->db(), &rng)};
        auto first =
            core::SampleSearch(snap->engine(), snap->graph(), probe, {});
        ASSERT_TRUE(first.ok()) << first.status();
        // Same pinned snapshot, same probe, moments later: the writer
        // has likely installed newer minor epochs in between, but this
        // epoch's bundle must be frozen.
        auto again =
            core::SampleSearch(snap->engine(), snap->graph(), probe, {});
        ASSERT_TRUE(again.ok()) << again.status();
        EXPECT_EQ(Ranked(*first), Ranked(*again))
            << "pinned snapshot changed under a concurrent update";
        reader_iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  TenantWriter writer(&catalog);
  Rng rng(4242);
  size_t applied_count = 0;
  // 30 steps, and more while no reader has finished an iteration (a
  // scheduler may park the readers through the first 30), within a cap.
  for (size_t step = 0;
       step < 30 || (reader_iterations.load() == 0 && step < 300); ++step) {
    const SnapshotPtr before = catalog.Pin(kTenant).ValueOrDie();
    if (step % 10 == 9) {
      // Occasional full publish: epoch churn layered on update churn.
      ASSERT_TRUE(
          catalog.Publish(kTenant, testing::MakeUniversityDb(99 + step))
              .ok());
      continue;
    }
    UpdateBatch batch;
    storage::RelationId rel_id;
    storage::RowId row;
    if (!PickLiveRow(before->db(), &rng, &rel_id, &row)) continue;
    const storage::Relation& rel = before->db().relation(rel_id);
    if (rng.Bernoulli(0.4)) {
      batch.deletes.push_back(RowDelete{rel.name(), row});
    } else {
      batch.inserts.push_back(RowInsert{rel.name(), rel.row(row)});
    }
    auto applied = writer.Apply(kTenant, batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    ++applied_count;
    // Differential oracle on the exact snapshot this batch installed
    // (Pin could already see a newer one).
    ExpectMatchesRebuild(*applied->snapshot,
                         MakeProbes(applied->snapshot->db(), &rng),
                         "concurrent step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) break;
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(applied_count, 20u);
  EXPECT_GT(reader_iterations.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamingConcurrencyTest,
                         ::testing::Values(1, 2, 4));

// ------------------------------------------- probe counters --------------

// One MatchingRows call is one probe and one memo hit or miss; a
// punctuation-only sample is one all-rows fallback and is never memoized;
// a delta bumps only the touched relation's memo version.
TEST(ProbeCountersTest, ScriptedProbesCountExactly) {
  CatalogOptions options;
  options.match_policy = text::MatchPolicy::Substring();
  options.match_policy.match_numeric = true;
  Catalog catalog(options);
  const SnapshotPtr before =
      catalog.Publish(kTenant, testing::MakeFilmDb()).ValueOrDie();
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
  const text::ProbeStats before_totals = counters.Snapshot();

  TenantWriter writer(&catalog);
  UpdateBatch batch;
  batch.inserts.push_back(RowInsert{
      "film", {testing::I(24), testing::S("Avatar"), testing::I(2003)}});
  const SnapshotPtr after = writer.Apply(kTenant, batch).ValueOrDie().snapshot;
  probe(after, title, "Avatar");  // miss: the film relation's version moved
  probe(after, title, "Avatar");  // hit
  probe(after, name, "Cameron");  // hit: person was untouched

  const text::ProbeStats totals = counters.Snapshot();
  EXPECT_EQ(totals.probes, 10u);
  EXPECT_EQ(totals.memo_hits, 4u);
  EXPECT_EQ(totals.memo_misses, 6u);
  EXPECT_EQ(totals.all_rows_fallbacks, 2u);
  // The probes against the pre-update engine alone.
  EXPECT_EQ(before_totals.probes, 7u);
  EXPECT_EQ(before_totals.memo_hits, 2u);
  EXPECT_EQ(before_totals.memo_misses, 5u);
  EXPECT_EQ(before_totals.all_rows_fallbacks, 2u);

  EXPECT_EQ(rows[0].size(), 12u);  // "Avatar" + "Avatar Returns"
  EXPECT_EQ(rows[7].size(), 13u);  // plus the inserted film
}

// ------------------------------------------- delta ownership -------------

// ApplyRow* mutates indexes in place, so it must only ever reach an engine
// CloneForDelta made: a built engine is what a publish serves, and its
// indexes are shared with every reader.
TEST(DeltaOwnershipDeathTest, RowOpsOnANonDeltaEngineAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const storage::Database db = testing::MakeFilmDb();
  const storage::RelationId film = db.FindRelation("film");
  text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  EXPECT_DEATH(engine.ApplyRowInsert(film, 0), "CloneForDelta");
  EXPECT_DEATH(engine.ApplyRowDelete(film, 0), "CloneForDelta");
  std::unique_ptr<text::FullTextEngine> delta =
      engine.CloneForDelta(&db, {film}, 1);
  // A delta owns its touched index: the row leaves the delta's postings
  // and stays in the base's.
  const text::AttributeRef title{film, 1};
  const std::string value(db.relation(film).at(0, 1).AsString());
  const auto holds_row_0 = [&](const text::FullTextEngine& e) {
    const text::RowSet rows = e.MatchingRows(title, value);
    return std::binary_search(rows->begin(), rows->end(), 0);
  };
  // (The delta shares the base's probe memo, keyed by relation version: it
  // is first probed after the delete, so its answer is not a stale entry.)
  ASSERT_TRUE(holds_row_0(engine));
  delta->ApplyRowDelete(film, 0);
  EXPECT_FALSE(holds_row_0(*delta));
  EXPECT_TRUE(holds_row_0(engine));
}

}  // namespace
}  // namespace mweaver::catalog
