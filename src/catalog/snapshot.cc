#include "catalog/snapshot.h"

#include <algorithm>

#include "common/hash_util.h"
#include "common/logging.h"

namespace mweaver::catalog {

std::vector<uint64_t> ComputeShardFingerprints(const storage::Database& db,
                                               uint32_t shard_count) {
  const uint32_t n = std::max<uint32_t>(1, shard_count);
  // Every shard's hash starts from the schema: a schema change (relation or
  // attribute added/renamed/retyped) invalidates all of them.
  size_t schema_seed = 0;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const storage::Relation& rel =
        db.relation(static_cast<storage::RelationId>(r));
    HashCombine(&schema_seed, rel.name());
    for (const storage::AttributeSchema& attr : rel.schema().attributes()) {
      HashCombine(&schema_seed, attr.name);
      HashCombine(&schema_seed, static_cast<int>(attr.type));
      HashCombine(&schema_seed, attr.searchable);
    }
  }
  std::vector<size_t> seeds(n, schema_seed);
  // Each live row folds (relation, row id) into its owning shard's hash,
  // then each column, read front to back, folds its cells in. Row ids
  // capture deletions (a vanished row no longer contributes) and appends;
  // cells capture in-place edits.
  std::vector<uint32_t> shard_of;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const storage::Relation& rel =
        db.relation(static_cast<storage::RelationId>(r));
    shard_of.resize(rel.num_rows());
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      const auto row_id = static_cast<storage::RowId>(row);
      shard_of[row] = rel.is_deleted(row_id) ? n : ShardOfRow(row_id, n);
      if (shard_of[row] == n) continue;
      HashCombine(&seeds[shard_of[row]], static_cast<int64_t>(r));
      HashCombine(&seeds[shard_of[row]], row_id);
    }
    for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
      const storage::Column& column =
          rel.column(static_cast<storage::AttributeId>(a));
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        if (shard_of[row] != n) {
          HashCombine(&seeds[shard_of[row]], column.at(row));
        }
      }
    }
  }
  return std::vector<uint64_t>(seeds.begin(), seeds.end());
}

Snapshot::Snapshot(std::string tenant, uint64_t epoch, uint64_t minor_epoch,
                   std::unique_ptr<storage::Database> db,
                   std::unique_ptr<text::FullTextEngine> engine,
                   std::unique_ptr<graph::SchemaGraph> graph,
                   std::vector<uint64_t> shard_fingerprints)
    : tenant_(std::move(tenant)),
      epoch_(epoch),
      minor_epoch_(minor_epoch),
      db_(std::move(db)),
      engine_(std::move(engine)),
      graph_(std::move(graph)),
      shard_fingerprints_(std::move(shard_fingerprints)) {
  MW_CHECK(db_ != nullptr) << "a snapshot needs a database";
  MW_CHECK(engine_ != nullptr) << "a snapshot needs an engine";
  MW_CHECK(graph_ != nullptr) << "a snapshot needs a schema graph";
  MW_CHECK(shard_fingerprints_.size() == engine_->shard_count())
      << "one shard fingerprint per engine shard";
}

}  // namespace mweaver::catalog
