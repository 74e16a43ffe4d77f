#include "storage/relation.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::storage {

JoinIndex::JoinIndex(const Relation& relation, AttributeId attribute) {
  const size_t num_rows = relation.num_rows();
  // The indexed value of row r, or null if it is not indexed.
  const auto value_of = [&](size_t r) -> const Value* {
    const auto row = static_cast<RowId>(r);
    if (relation.is_deleted(row)) return nullptr;
    const Value& v = relation.at(row, attribute);
    return v.is_null() ? nullptr : &v;
  };
  size_t indexed = 0;
  int64_t max_key = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    const Value* v = value_of(r);
    if (v == nullptr) continue;
    const int64_t key = KeyOf(*v);
    if (indexed == 0 || key < min_key_) min_key_ = key;
    if (indexed == 0 || key > max_key) max_key = key;
    integer_keys_ = integer_keys_ && v->type() == ValueType::kInt64;
    ++indexed;
  }
  // Unsigned arithmetic: INT64_MAX - INT64_MIN does not overflow.
  const uint64_t key_span =
      static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key_);
  dense_ = integer_keys_ && (indexed == 0 || key_span < 4 * uint64_t{indexed});

  // Group of each indexed row (kEmptySlot for the others), then a counting
  // sort of the rows by group: visiting rows in ascending order keeps every
  // group ascending.
  std::vector<uint32_t> group_of(num_rows, kEmptySlot);
  std::vector<uint32_t> counts;
  if (dense_) {
    if (indexed > 0) counts.assign(static_cast<size_t>(key_span) + 1, 0);
    for (size_t r = 0; r < num_rows; ++r) {
      const Value* v = value_of(r);
      if (v == nullptr) continue;
      group_of[r] = static_cast<uint32_t>(static_cast<uint64_t>(v->AsInt64()) -
                                          static_cast<uint64_t>(min_key_));
      if (counts[group_of[r]]++ == 0) ++num_distinct_;
    }
  } else {
    size_t capacity = 2;
    while (capacity < 2 * indexed) capacity *= 2;
    slot_keys_.assign(capacity, 0);
    slot_groups_.assign(capacity, kEmptySlot);
    slot_shift_ = 64 - std::countr_zero(capacity);
    for (size_t r = 0; r < num_rows; ++r) {
      const Value* v = value_of(r);
      if (v == nullptr) continue;
      const int64_t key = KeyOf(*v);
      size_t s = Slot(key);
      while (slot_groups_[s] != kEmptySlot &&
             (slot_keys_[s] != key ||
              (!integer_keys_ && group_values_[slot_groups_[s]] != *v))) {
        s = (s + 1) & (capacity - 1);
      }
      if (slot_groups_[s] == kEmptySlot) {
        slot_keys_[s] = key;
        slot_groups_[s] = static_cast<uint32_t>(counts.size());
        counts.push_back(0);
        if (!integer_keys_) group_values_.push_back(*v);
      }
      group_of[r] = slot_groups_[s];
      ++counts[group_of[r]];
    }
    num_distinct_ = counts.size();
  }
  starts_.resize(counts.size() + 1);
  for (size_t g = 0; g < counts.size(); ++g) {
    starts_[g + 1] = starts_[g] + counts[g];
  }
  rows_.resize(indexed);
  // counts becomes each group's fill cursor.
  std::copy(starts_.begin(), starts_.end() - 1, counts.begin());
  for (size_t r = 0; r < num_rows; ++r) {
    if (group_of[r] != kEmptySlot) {
      rows_[counts[group_of[r]]++] = static_cast<RowId>(r);
    }
  }
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

const JoinIndex& Relation::IndexOn(AttributeId attribute) const {
  MW_CHECK_GE(attribute, 0);
  MW_CHECK_LT(static_cast<size_t>(attribute), schema_.num_attributes());
  std::atomic<const JoinIndex*>& published =
      published_[static_cast<size_t>(attribute)];
  if (const JoinIndex* built = published.load(std::memory_order_acquire)) {
    return *built;
  }
  std::lock_guard<std::mutex> lock(*index_mutex_);
  // A racing caller may have built it while this one waited.
  if (const JoinIndex* built = published.load(std::memory_order_relaxed)) {
    return *built;
  }
  if (indexes_.empty()) indexes_.resize(schema_.num_attributes());
  auto& slot = indexes_[static_cast<size_t>(attribute)];
  slot = std::make_unique<JoinIndex>(*this, attribute);
  published.store(slot.get(), std::memory_order_release);
  return *slot;
}

}  // namespace mweaver::storage
