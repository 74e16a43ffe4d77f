// Tests for the tenant catalog: publish/pin/epoch semantics, eviction,
// and the snapshot lifecycle contract — readers pinned on epoch N keep
// byte-identical results while N+1..K build and publish concurrently, and
// an old epoch's bundle is freed exactly when its last pin drops. The
// stress test is a designated TSan workload (label "tsan").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/failpoint.h"
#include "core/sample_search.h"
#include "graph/schema_graph.h"
#include "storage/database.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/match.h"

namespace mweaver::catalog {
namespace {

// Canonical forms + scores of a ranked candidate list, for byte-identical
// comparison between runs.
std::vector<std::pair<std::string, double>> Ranked(
    const core::SearchResult& result) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(result.candidates.size());
  for (const core::CandidateMapping& c : result.candidates) {
    out.emplace_back(c.mapping.Canonical(), c.score);
  }
  return out;
}

std::vector<std::pair<std::string, double>> SearchRanked(
    const Snapshot& snapshot, const std::vector<std::string>& first_row) {
  auto result =
      core::SampleSearch(snapshot.engine(), snapshot.graph(), first_row, {});
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? Ranked(*result)
                     : std::vector<std::pair<std::string, double>>{};
}

// A Figure-2 variant whose extra "Avatar 2" row changes what the sample
// row {"Avatar", "James Cameron"} matches — publishing it proves pinned
// readers are isolated from the new epoch.
storage::Database MakeGrownFigure2Db() {
  storage::Database db = testing::MakeFigure2Db();
  testing::AddRow(&db, "movie", {testing::I(3), testing::S("Avatar 2")});
  testing::AddRow(&db, "director", {testing::I(3), testing::I(0)});
  return db;
}

// --------------------------------------------------------------- unit ----

TEST(CatalogTest, PublishCreatesTenantsAndEpochsAreCatalogWideMonotonic) {
  Catalog catalog;
  auto a1 = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(a1.ok());
  auto a2 = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(a2.ok());
  auto b1 = catalog.Publish("beta", testing::MakeFigure2Db());
  ASSERT_TRUE(b1.ok());

  EXPECT_EQ((*a1)->tenant(), "alpha");
  EXPECT_LT((*a1)->epoch(), (*a2)->epoch());
  // The counter is catalog-wide: beta's first epoch is newer than BOTH of
  // alpha's, so no two snapshots anywhere share an epoch.
  EXPECT_LT((*a2)->epoch(), (*b1)->epoch());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(*catalog.CurrentEpoch("alpha"), (*a2)->epoch());
  EXPECT_EQ(*catalog.CurrentEpoch("beta"), (*b1)->epoch());
}

TEST(CatalogTest, PinReturnsCurrentAndUnknownTenantsFail) {
  Catalog catalog;
  auto published = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(published.ok());
  auto pinned = catalog.Pin("alpha");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ((*pinned).get(), (*published).get());

  EXPECT_TRUE(catalog.Pin("nope").status().IsNotFound());
  EXPECT_TRUE(catalog.CurrentEpoch("nope").status().IsNotFound());
  EXPECT_TRUE(
      catalog.Publish("", testing::MakeFigure2Db()).status()
          .IsInvalidArgument());
}

TEST(CatalogTest, DropUnregistersButOutstandingPinsKeepServing) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());
  SnapshotPtr pinned = *catalog.Pin("alpha");
  const auto reference = SearchRanked(*pinned, {"Avatar", "James Cameron"});
  ASSERT_FALSE(reference.empty());

  ASSERT_TRUE(catalog.Drop("alpha").ok());
  EXPECT_TRUE(catalog.Drop("alpha").IsNotFound());
  EXPECT_TRUE(catalog.Pin("alpha").status().IsNotFound());
  EXPECT_EQ(catalog.size(), 0u);

  // The pin outlives the registration: identical results after the drop.
  EXPECT_EQ(SearchRanked(*pinned, {"Avatar", "James Cameron"}), reference);
}

TEST(CatalogTest, PublishFailsBeyondMaxTenantsButRepublishStillWorks) {
  CatalogOptions options;
  options.max_tenants = 2;
  Catalog catalog(options);
  ASSERT_TRUE(catalog.Publish("a", testing::MakeFigure2Db()).ok());
  ASSERT_TRUE(catalog.Publish("b", testing::MakeFigure2Db()).ok());
  EXPECT_TRUE(catalog.Publish("c", testing::MakeFigure2Db())
                  .status()
                  .IsResourceExhausted());
  // Existing tenants republish fine at the limit.
  EXPECT_TRUE(catalog.Publish("a", testing::MakeFigure2Db()).ok());
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(CatalogTest, EvictIdleReclaimsColdTenantsAndNeverReusesEpochs) {
  CatalogOptions options;
  options.idle_ttl = std::chrono::milliseconds(0);  // everything is cold
  Catalog catalog(options);
  auto first = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(first.ok());
  const uint64_t old_epoch = (*first)->epoch();
  const std::vector<Catalog::EvictedTenant> evicted = catalog.EvictIdle();
  ASSERT_EQ(evicted.size(), 1u);
  // Evictions report the epoch the tenant was serving, so downstream
  // invalidation can be scoped to <= it (a racing republish's entries,
  // at a strictly greater epoch, survive).
  EXPECT_EQ(evicted[0].name, "alpha");
  EXPECT_EQ(evicted[0].epoch, old_epoch);
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_TRUE(catalog.Pin("alpha").status().IsNotFound());

  // Recreating the tenant claims a FRESH epoch: downstream cache
  // fingerprints keyed on (tenant, epoch) can never alias across the
  // eviction.
  auto again = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(again.ok());
  EXPECT_GT((*again)->epoch(), old_epoch);

  // A warm catalog evicts nothing.
  Catalog warm;  // default 30min TTL
  ASSERT_TRUE(warm.Publish("alpha", testing::MakeFigure2Db()).ok());
  EXPECT_TRUE(warm.EvictIdle().empty());
  EXPECT_EQ(warm.size(), 1u);
}

TEST(CatalogTest, ListTenantsReportsEpochRowsAndPins) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());
  ASSERT_TRUE(catalog.Publish("beta", testing::MakeFigure2Db()).ok());
  SnapshotPtr pin = *catalog.Pin("beta");

  std::vector<TenantInfo> tenants = catalog.ListTenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "alpha");  // stable name order
  EXPECT_EQ(tenants[1].name, "beta");
  for (const TenantInfo& info : tenants) {
    EXPECT_GT(info.epoch, 0u);
    EXPECT_EQ(info.publishes, 1u);
    EXPECT_GT(info.rows, 0u);
    EXPECT_GT(info.index_bytes, 0u);
  }
  EXPECT_EQ(tenants[0].pins, 0);
  EXPECT_EQ(tenants[1].pins, 1);  // our pin
}

// An unsharded tenant rebuilds its one shard per publish and per delta.
TEST(CatalogTest, ShardRebuildCountsCoverPublishesAndDeltas) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());
  TenantWriter writer(&catalog);
  UpdateBatch batch;
  batch.deletes.push_back(RowDelete{"movie", 0});
  auto applied = writer.Apply("alpha", batch);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->shards_touched, 1u);
  const std::vector<TenantInfo> tenants = catalog.ListTenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].updates, 1u);
  EXPECT_EQ(tenants[0].shards_rebuilt_last, 1u);
  EXPECT_EQ(tenants[0].shards_rebuilt_total, 2u);
}

TEST(CatalogTest, PublishFailpointLeavesTheOldEpochServing) {
  Catalog catalog;
  auto first = catalog.Publish("alpha", testing::MakeFigure2Db());
  ASSERT_TRUE(first.ok());
  const uint64_t epoch = (*first)->epoch();

  FailpointPolicy policy;
  policy.action = FailAction::kError;  // injects Unavailable (retryable)
  {
    ScopedFailpoint armed("catalog.tenant.publish", policy);
    auto failed = catalog.Publish("alpha", MakeGrownFigure2Db());
    EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status();
  }
  // The failed ingestion never touched the serving state.
  EXPECT_EQ(*catalog.CurrentEpoch("alpha"), epoch);
  ASSERT_TRUE(catalog.Pin("alpha").ok());

  // Disarmed, the republish lands and bumps the epoch.
  auto retried = catalog.Publish("alpha", MakeGrownFigure2Db());
  ASSERT_TRUE(retried.ok());
  EXPECT_GT((*retried)->epoch(), epoch);
}

// ----------------------------------------------- snapshot lifecycle ------

TEST(CatalogTest, OldEpochFreedOnlyAfterLastPinDrops) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());
  SnapshotPtr pin = *catalog.Pin("alpha");
  std::weak_ptr<const Snapshot> watch = pin;

  // Republishing supersedes the old epoch in the catalog, but our pin
  // keeps the bundle alive.
  ASSERT_TRUE(catalog.Publish("alpha", MakeGrownFigure2Db()).ok());
  EXPECT_FALSE(watch.expired());
  EXPECT_NE(catalog.Pin("alpha")->get(), pin.get());

  pin.reset();  // the LAST reference: the old bundle dies exactly here
  EXPECT_TRUE(watch.expired());
}

// Satellite property: searching a pinned snapshot is indistinguishable
// from searching a frozen deep copy of its database taken at pin time —
// i.e. the snapshot really is immutable, republishes notwithstanding.
TEST(CatalogTest, SearchOnPinnedSnapshotEqualsSearchOnFrozenCopy) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());
  SnapshotPtr pinned = *catalog.Pin("alpha");

  // Freeze: a deep copy of the pinned database with its own index build.
  storage::Database frozen_db = pinned->db().Clone();
  text::FullTextEngine frozen_engine(&frozen_db,
                                     catalog.options().match_policy);
  graph::SchemaGraph frozen_graph(&frozen_db);

  // Churn the tenant so the catalog's current epoch diverges hard from
  // the pinned one.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(catalog.Publish("alpha", MakeGrownFigure2Db()).ok());
  }

  const std::vector<std::vector<std::string>> first_rows = {
      {"Avatar", "James Cameron"},
      {"Harry Potter", "David Yates"},
      {"Big Fish", "Tim Burton"},
      {"Avatar"},
  };
  for (const auto& first_row : first_rows) {
    auto from_pin = core::SampleSearch(pinned->engine(), pinned->graph(),
                                       first_row, {});
    auto from_frozen =
        core::SampleSearch(frozen_engine, frozen_graph, first_row, {});
    ASSERT_TRUE(from_pin.ok()) << from_pin.status();
    ASSERT_TRUE(from_frozen.ok()) << from_frozen.status();
    EXPECT_EQ(Ranked(*from_pin), Ranked(*from_frozen));
  }
  // And the diverged current epoch really does answer differently (the
  // grown database matches more), so the equality above is not vacuous.
  SnapshotPtr current = *catalog.Pin("alpha");
  auto grown =
      core::SampleSearch(current->engine(), current->graph(), {"Avatar"}, {});
  ASSERT_TRUE(grown.ok());
  auto old_result = core::SampleSearch(pinned->engine(), pinned->graph(),
                                       {"Avatar"}, {});
  ASSERT_TRUE(old_result.ok());
  EXPECT_NE(Ranked(*grown), Ranked(*old_result));
}

// ------------------------------------------------------ TSan stress ------

// Readers pin epoch N and search it repeatedly while a writer publishes
// N+1..N+K; every read must be byte-identical to that reader's first
// result on its pinned epoch, and each superseded epoch must stay alive
// until its last reader finishes.
TEST(CatalogStressTest, PinnedReadersAreIsolatedFromConcurrentPublishes) {
  constexpr size_t kReaders = 6;
  constexpr size_t kSearchesPerReader = 8;
  constexpr int kPublishes = 10;

  Catalog catalog;
  ASSERT_TRUE(catalog.Publish("alpha", testing::MakeFigure2Db()).ok());

  std::atomic<bool> start{false};
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::weak_ptr<const Snapshot>> watches(kReaders);

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      // Pin once: everything below sees exactly this epoch.
      SnapshotPtr pin = *catalog.Pin("alpha");
      watches[r] = pin;
      const auto reference = SearchRanked(*pin, {"Avatar", "James Cameron"});
      for (size_t s = 1; s < kSearchesPerReader; ++s) {
        if (SearchRanked(*pin, {"Avatar", "James Cameron"}) != reference) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
      // `pin` drops here; if this reader held the epoch's last reference,
      // the bundle is freed on this thread, outside any catalog lock.
    });
  }

  std::thread writer([&]() {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kPublishes; ++i) {
      auto published = catalog.Publish(
          "alpha", i % 2 == 0 ? MakeGrownFigure2Db()
                              : testing::MakeFigure2Db());
      ASSERT_TRUE(published.ok()) << published.status();
    }
    writer_done.store(true, std::memory_order_release);
  });

  start.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());
  EXPECT_EQ(mismatches.load(), 0u);

  // Every reader has dropped its pin; the catalog holds only the final
  // epoch, so all watched (pinned) snapshots that were superseded are
  // gone — none leaked, none freed early (the searches above would have
  // crashed or mismatched).
  const uint64_t final_epoch = *catalog.CurrentEpoch("alpha");
  for (const auto& watch : watches) {
    if (SnapshotPtr alive = watch.lock()) {
      EXPECT_EQ(alive->epoch(), final_epoch);  // only the current survives
    }
  }
  EXPECT_EQ(catalog.size(), 1u);
}

}  // namespace
}  // namespace mweaver::catalog
