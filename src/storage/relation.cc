#include "storage/relation.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::storage {

namespace {
const std::vector<RowId> kNoRows;
}  // namespace

const std::vector<RowId>& HashIndex::Lookup(const Value& value) const {
  auto it = map_.find(value);
  return it == map_.end() ? kNoRows : it->second;
}

Status Relation::Append(Row row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "relation '%s' expects %zu attributes, got %zu",
        schema_.name().c_str(), schema_.num_attributes(), row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (!v.is_null() && v.type() != schema_.attributes()[i].type) {
      return Status::InvalidArgument(StrFormat(
          "relation '%s' attribute '%s' expects %s, got %s",
          schema_.name().c_str(), schema_.attributes()[i].name.c_str(),
          ValueTypeName(schema_.attributes()[i].type),
          ValueTypeName(v.type())));
    }
  }
  MW_CHECK(indexes_.empty())
      << "appending to relation '" << name() << "' after indexes were built";
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Relation::Delete(RowId id) {
  if (id < 0 || static_cast<size_t>(id) >= rows_.size()) {
    return Status::InvalidArgument(
        StrFormat("relation '%s' has no row %lld", schema_.name().c_str(),
                  static_cast<long long>(id)));
  }
  if (is_deleted(id)) {
    return Status::InvalidArgument(
        StrFormat("relation '%s' row %lld already deleted",
                  schema_.name().c_str(), static_cast<long long>(id)));
  }
  if (deleted_.empty()) deleted_.assign(rows_.size(), 0);
  if (deleted_.size() < rows_.size()) deleted_.resize(rows_.size(), 0);
  deleted_[static_cast<size_t>(id)] = 1;
  ++num_deleted_;
  // Lazily built indexes may already hold this row: drop them so the next
  // IndexOn rebuild skips the tombstone.
  {
    std::lock_guard<std::mutex> lock(*index_mutex_);
    for (size_t a = 0; a < schema_.num_attributes(); ++a) {
      published_[a].store(nullptr, std::memory_order_relaxed);
    }
    indexes_.clear();
  }
  return Status::OK();
}

const HashIndex& Relation::IndexOn(AttributeId attribute) const {
  MW_CHECK_GE(attribute, 0);
  MW_CHECK_LT(static_cast<size_t>(attribute), schema_.num_attributes());
  std::atomic<const HashIndex*>& published =
      published_[static_cast<size_t>(attribute)];
  if (const HashIndex* built = published.load(std::memory_order_acquire)) {
    return *built;
  }
  std::lock_guard<std::mutex> lock(*index_mutex_);
  // A racing caller may have built it while this one waited.
  if (const HashIndex* built = published.load(std::memory_order_relaxed)) {
    return *built;
  }
  if (indexes_.empty()) indexes_.resize(schema_.num_attributes());
  auto& slot = indexes_[static_cast<size_t>(attribute)];
  slot = std::make_unique<HashIndex>();
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (is_deleted(static_cast<RowId>(r))) continue;
    const Value& v = rows_[r][static_cast<size_t>(attribute)];
    if (!v.is_null()) slot->Insert(v, static_cast<RowId>(r));
  }
  published.store(slot.get(), std::memory_order_release);
  return *slot;
}

}  // namespace mweaver::storage
