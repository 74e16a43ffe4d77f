#include "catalog/tenant_writer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "graph/schema_graph.h"
#include "text/fulltext_engine.h"

namespace mweaver::catalog {

namespace {

// Rejects a batch that leaves two live rows of a relation under one primary
// key, at least one of them inserted by the batch. Runs on the clones after
// the batch's inserts (appended to `db` at `inserted_rows`, into
// `insert_rels`) and deletes, so a batch may delete a row and re-insert its
// key. Only relations the batch inserts into are checked; each costs one
// pass over its rows, which the copy-on-write clone already paid for.
Status CheckInsertedPrimaryKeys(
    const storage::Database& db,
    const std::vector<storage::RelationId>& insert_rels,
    const std::vector<storage::RowId>& inserted_rows) {
  std::map<storage::RelationId, std::vector<storage::RowId>> by_relation;
  for (size_t i = 0; i < insert_rels.size(); ++i) {
    by_relation[insert_rels[i]].push_back(inserted_rows[i]);
  }
  for (const auto& [rel_id, rows] : by_relation) {
    const storage::Relation& rel = db.relation(rel_id);
    const std::vector<storage::AttributeId>& pk = rel.schema().primary_key();
    if (pk.empty()) continue;
    // Orders row ids by their key cells, read off the key columns.
    const auto key_less = [&](storage::RowId a, storage::RowId b) {
      for (const storage::AttributeId attr : pk) {
        const storage::ValueView x = rel.at(a, attr);
        const storage::ValueView y = rel.at(b, attr);
        if (x < y) return true;
        if (y < x) return false;
      }
      return false;
    };
    const auto duplicate = [&](storage::RowId row, const char* what) {
      std::string key;
      for (const storage::AttributeId attr : pk) {
        if (!key.empty()) key += ", ";
        key += rel.at(row, attr).ToDisplayString();
      }
      return Status::InvalidArgument(
          StrFormat("insert into '%s' repeats the primary key (%s) of %s",
                    rel.name().c_str(), key.c_str(), what));
    };
    std::set<storage::RowId, decltype(key_less)> keys(key_less);
    for (const storage::RowId row : rows) {
      if (rel.is_deleted(row)) continue;
      if (!keys.insert(row).second) {
        return duplicate(row, "an earlier insert in the batch");
      }
    }
    if (keys.empty()) continue;
    // Inserts are appended, so every row before the first one predates
    // the batch.
    for (storage::RowId row = 0; row < rows.front(); ++row) {
      if (!rel.is_deleted(row) && keys.count(row) > 0) {
        return duplicate(row, "a live row");
      }
    }
  }
  return Status::OK();
}

}  // namespace

TenantWriter::TenantWriter(Catalog* catalog, TenantWriterOptions options)
    : catalog_(catalog), options_(options) {
  MW_CHECK(catalog_ != nullptr) << "a tenant writer needs a catalog";
}

Result<UpdateResult> TenantWriter::Apply(std::string_view tenant,
                                         const UpdateBatch& batch) {
  if (batch.empty()) {
    return Status::InvalidArgument("update batch must not be empty");
  }
  // Chaos site: the update flaking before the delta build starts (source
  // feed unreachable, quota trip). Nothing has been built yet; the tenant
  // keeps serving its current snapshot untouched.
  MW_FAILPOINT_RETURN_NOT_OK("catalog.tenant.apply_update");

  // Serialize against other writers to this tenant for the WHOLE build:
  // two concurrent batches cloning the same base would each build a delta
  // missing the other's rows, and the CAS install would reject one of them
  // anyway — holding the lock turns that wasted build into a short wait.
  auto lock_result = catalog_->WriterLock(tenant);
  if (!lock_result.ok()) return lock_result.status();
  std::lock_guard<std::mutex> write_lock(*lock_result.ValueOrDie());

  auto base_result = catalog_->Pin(tenant);
  if (!base_result.ok()) return base_result.status();
  const SnapshotPtr base = base_result.ValueOrDie();

  // Resolve every named relation against the base schema and collect the
  // touched set (sorted, deduped) before cloning anything.
  std::vector<storage::RelationId> touched;
  const auto resolve =
      [&](const std::string& name) -> Result<storage::RelationId> {
    const storage::RelationId id = base->db().FindRelation(name);
    if (id == storage::kInvalidRelation) {
      return Status::NotFound(
          StrFormat("no relation '%s' in tenant '%.*s'", name.c_str(),
                    static_cast<int>(tenant.size()), tenant.data()));
    }
    touched.push_back(id);
    return id;
  };
  std::vector<storage::RelationId> insert_rels;
  insert_rels.reserve(batch.inserts.size());
  for (const RowInsert& ins : batch.inserts) {
    auto id = resolve(ins.relation);
    if (!id.ok()) return id.status();
    insert_rels.push_back(id.ValueOrDie());
  }
  std::vector<storage::RelationId> delete_rels;
  delete_rels.reserve(batch.deletes.size());
  for (const RowDelete& del : batch.deletes) {
    auto id = resolve(del.relation);
    if (!id.ok()) return id.status();
    delete_rels.push_back(id.ValueOrDie());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // ---- From here on everything happens on private clones; any failure
  // ---- discards them whole and the serving snapshot is untouched.

  auto db = std::make_unique<storage::Database>(base->db().CloneCow(touched));

  // Rows first: Append validates arity/types against the schema, Delete
  // validates range/liveness — deletes run after inserts so a batch may
  // remove rows it inserted itself.
  UpdateResult result;
  result.inserted_rows.reserve(batch.inserts.size());
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    storage::Relation* rel = db->mutable_relation(insert_rels[i]);
    Status s = rel->Append(batch.inserts[i].row);
    if (!s.ok()) return s;
    result.inserted_rows.push_back(
        static_cast<storage::RowId>(rel->num_rows() - 1));
  }
  for (size_t i = 0; i < batch.deletes.size(); ++i) {
    Status s =
        db->mutable_relation(delete_rels[i])->Delete(batch.deletes[i].row);
    if (!s.ok()) return s;
  }
  Status keys = CheckInsertedPrimaryKeys(*db, insert_rels,
                                         result.inserted_rows);
  if (!keys.ok()) return keys;

  // Index delta: copy-on-write engine over the new database, then replay
  // the same rows in the same order into the touched relations' indexes;
  // every other relation's indexes stay shared with the base.
  const uint64_t minor = base->minor_epoch() + 1;
  std::unique_ptr<text::FullTextEngine> engine =
      base->engine().CloneForDelta(db.get(), touched, minor);
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    engine->ApplyRowInsert(insert_rels[i], result.inserted_rows[i]);
  }
  for (size_t i = 0; i < batch.deletes.size(); ++i) {
    engine->ApplyRowDelete(delete_rels[i], batch.deletes[i].row);
  }

  // Delta compaction: relations that accumulated enough removals get their
  // indexes rebuilt from live rows while we still own the clones. Chaos
  // site "text.index.delta_compact" models the rebuild failing (allocation
  // pressure, torn source read): the whole side build is discarded.
  for (const storage::RelationId rel : touched) {
    if (engine->MaxRemovedRows(rel) < options_.compact_removed_rows_threshold) {
      continue;
    }
    MW_FAILPOINT_RETURN_NOT_OK("text.index.delta_compact");
    engine->CompactRelationIndexes(rel);
    ++result.relations_compacted;
  }

  // FK endpoints and edge shapes are schema-level, but the graph holds a
  // database back-pointer, so the delta gets its own instance.
  auto graph = std::make_unique<graph::SchemaGraph>(db.get());

  auto next = std::make_shared<const Snapshot>(
      std::string(tenant), base->epoch(), minor, std::move(db),
      std::move(engine), std::move(graph));

  Status installed = catalog_->InstallDelta(tenant, base, next);
  if (!installed.ok()) return installed;

  result.snapshot = std::move(next);
  result.rows_inserted = batch.inserts.size();
  result.rows_deleted = batch.deletes.size();
  return result;
}

}  // namespace mweaver::catalog
