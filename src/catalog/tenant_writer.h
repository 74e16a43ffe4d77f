// TenantWriter: streaming updates to a live tenant. A writer applies a
// batch of row inserts / deletes to the tenant's current snapshot without a
// full Publish rebuild:
//
//   Pin base ──> CloneCow(touched relations)         (db: O(touched rows))
//            ──> CloneForDelta(touched relations)    (engine: shares the
//                + ApplyRowInsert / ApplyRowDelete    untouched indexes and
//                                                     the probe memo)
//            ──> delta Snapshot at (epoch, minor+1)
//            ──> Catalog::InstallDelta  (CAS against the pinned base)
//
// The whole build happens on private clones; readers pinned on the base
// keep serving it byte-for-byte unchanged, and any failure at any step
// simply discards the clones — a failed update can never disturb the
// serving snapshot. Writers to one tenant are serialized by the catalog's
// per-tenant writer lock; a concurrent full Publish wins by making the
// final InstallDelta fail its precondition.
#ifndef MWEAVER_CATALOG_TENANT_WRITER_H_
#define MWEAVER_CATALOG_TENANT_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace mweaver::catalog {

/// \brief One row appended to a named relation.
struct RowInsert {
  std::string relation;
  storage::Row row;
};

/// \brief One row tombstoned in a named relation. `row` may name a row that
/// existed in the base snapshot or one inserted earlier in the same batch.
struct RowDelete {
  std::string relation;
  storage::RowId row = -1;
};

/// \brief An atomic unit of streaming change: either every insert and
/// delete lands in the new minor epoch, or none do.
struct UpdateBatch {
  std::vector<RowInsert> inserts;
  std::vector<RowDelete> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// \brief What a successful Apply() did.
struct UpdateResult {
  /// The newly serving delta snapshot (minor epoch = base's + 1).
  SnapshotPtr snapshot;
  /// RowIds assigned to `batch.inserts`, in order — how an updater learns
  /// the ids of its own rows so it can delete them later.
  std::vector<storage::RowId> inserted_rows;
  size_t rows_inserted = 0;
  size_t rows_deleted = 0;
  /// Relations whose indexes were rebuilt by the delta-compaction policy.
  size_t relations_compacted = 0;
  /// Shards the batch's rows hashed into — the only shards delta-cloned
  /// (the rest stayed shared with the base, memos warm). 1 for an
  /// unsharded tenant.
  size_t shards_touched = 1;
};

struct TenantWriterOptions {
  /// A touched relation whose largest per-index removed-row count reaches
  /// this threshold gets its indexes rebuilt from live rows during the
  /// batch, reclaiming posting-list and dictionary garbage. 0 compacts on
  /// every delete-carrying batch.
  size_t compact_removed_rows_threshold = 1024;
};

/// \brief Applies update batches to live tenants. Stateless between calls;
/// one writer instance may serve any number of tenants and threads (batches
/// to one tenant serialize on the catalog's per-tenant writer lock).
///
/// Failpoints: "catalog.tenant.apply_update" injects a failure before the
/// delta build starts; "text.index.delta_compact" injects one at the
/// delta-compaction step. Either way the side build is discarded whole and
/// the tenant keeps serving its current snapshot.
class TenantWriter {
 public:
  explicit TenantWriter(Catalog* catalog, TenantWriterOptions options = {});

  TenantWriter(const TenantWriter&) = delete;
  TenantWriter& operator=(const TenantWriter&) = delete;

  /// \brief Atomically applies `batch` to `tenant`'s current snapshot and
  /// installs the result as the new serving state at the next minor epoch.
  ///
  /// Validation (any failure discards the whole batch):
  ///  - every named relation must exist (NotFound),
  ///  - inserts must match the relation schema's arity and types
  ///    (InvalidArgument, via Relation::Append),
  ///  - deletes must name an in-range, live row — base rows and rows
  ///    inserted earlier in this same batch are both fair game
  ///    (InvalidArgument on double-delete or out-of-range),
  ///  - once the batch's inserts and deletes are applied, no inserted row
  ///    may share its primary key with another live row, base or inserted
  ///    (InvalidArgument; relations without a primary key are exempt). A
  ///    batch may thus delete a row and re-insert its key.
  ///
  /// FailedPrecondition when a concurrent Publish superseded the base
  /// snapshot mid-build; callers may re-Pin and retry on the new epoch.
  Result<UpdateResult> Apply(std::string_view tenant, const UpdateBatch& batch);

  const TenantWriterOptions& options() const { return options_; }

 private:
  Catalog* const catalog_;
  const TenantWriterOptions options_;
};

}  // namespace mweaver::catalog

#endif  // MWEAVER_CATALOG_TENANT_WRITER_H_
