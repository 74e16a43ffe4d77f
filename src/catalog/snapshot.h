// Snapshot: one tenant's immutable serving state at one epoch — the source
// Database together with the FullTextEngine and SchemaGraph built over it.
// A snapshot never changes after construction; it is shared by refcount
// (SnapshotPtr) between the catalog's "current" slot and every session /
// request pinning it. Publishing a new epoch swaps the catalog's pointer;
// readers pinned on the old epoch keep searching it, byte-for-byte
// unchanged, and the old bundle is destroyed only when the last pin drops.
#ifndef MWEAVER_CATALOG_SNAPSHOT_H_
#define MWEAVER_CATALOG_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/schema_graph.h"
#include "storage/database.h"
#include "text/fulltext_engine.h"
#include "text/match.h"

namespace mweaver::catalog {

/// \brief Per-shard content fingerprints of a database: shard s hashes the
/// schema plus every live (row id, values) pair common::ShardOfRow assigns
/// to s. Two databases with equal fingerprints for shard s would build
/// byte-identical shard-s indexes, which is what lets Publish carry
/// unchanged shard index sets over from the previous snapshot and rebuild
/// only the rest.
std::vector<uint64_t> ComputeShardFingerprints(const storage::Database& db,
                                               uint32_t shard_count);

/// \brief An immutable, refcounted bundle of per-tenant serving state.
///
/// The database is held behind a unique_ptr so its address stays stable for
/// the engine's and graph's back-pointers regardless of where the snapshot
/// itself is moved or shared. Building the engine is the expensive step (it
/// builds its inverted / n-gram / deletion indexes eagerly): the catalog
/// runs it outside any lock so publishing never stalls readers.
class Snapshot {
 public:
  /// \brief Adopts a pre-built bundle: the engine and schema graph built
  /// over `db` by Catalog::Publish (minor epoch 0) or by TenantWriter for a
  /// streaming update (a CoW database and a CloneForDelta engine at the
  /// base's publish epoch). `minor_epoch` distinguishes successive update
  /// batches within that epoch. `shard_fingerprints` carries one content
  /// fingerprint per engine shard.
  Snapshot(std::string tenant, uint64_t epoch, uint64_t minor_epoch,
           std::unique_ptr<storage::Database> db,
           std::unique_ptr<text::FullTextEngine> engine,
           std::unique_ptr<graph::SchemaGraph> graph,
           std::vector<uint64_t> shard_fingerprints);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// \brief The owning tenant's name.
  const std::string& tenant() const { return tenant_; }
  /// \brief Monotonic publish epoch, unique across the whole catalog (so a
  /// tenant evicted and later republished can never alias an old epoch in
  /// result-cache fingerprints).
  uint64_t epoch() const { return epoch_; }
  /// \brief Update sequence number within the publish epoch: 0 for a full
  /// Publish, incremented by every installed streaming update batch. The
  /// (epoch, minor_epoch) pair totally orders a tenant's serving states
  /// and extends result-cache fingerprints so entries computed before an
  /// update die by construction.
  uint64_t minor_epoch() const { return minor_epoch_; }

  const storage::Database& db() const { return *db_; }
  const text::FullTextEngine& engine() const { return *engine_; }
  const graph::SchemaGraph& graph() const { return *graph_; }

  /// \brief Shard topology of the bundle (the engine's shard count). Part
  /// of the service result-cache fingerprint (results are byte-identical
  /// across shard counts, but rebinding the key keeps the fingerprint an
  /// honest function of the serving configuration).
  uint32_t shard_count() const { return engine_->shard_count(); }

  /// \brief Per-shard content fingerprints (see ComputeShardFingerprints);
  /// delta snapshots poison touched shards' entries with a unique nonce so
  /// a later Publish never falsely reuses them.
  const std::vector<uint64_t>& shard_fingerprints() const {
    return shard_fingerprints_;
  }

  /// \brief Approximate heap footprint of the text indexes (capacity
  /// accounting for eviction policies and per-tenant metrics).
  size_t index_bytes() const { return engine_->index_bytes(); }

 private:
  const std::string tenant_;
  const uint64_t epoch_;
  const uint64_t minor_epoch_;
  const std::unique_ptr<storage::Database> db_;
  const std::unique_ptr<text::FullTextEngine> engine_;
  const std::unique_ptr<graph::SchemaGraph> graph_;
  std::vector<uint64_t> shard_fingerprints_;
};

/// \brief The pin: holding one keeps the whole bundle alive. Searches that
/// must see one consistent instance for their full duration copy the
/// tenant's current SnapshotPtr once and use only that.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace mweaver::catalog

#endif  // MWEAVER_CATALOG_SNAPSHOT_H_
