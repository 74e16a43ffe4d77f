#include "storage/relation.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::storage {

void Column::Push(ValueView v) {
  if (v.is_null()) {
    if (nulls_.size() <= size_ >> 6) nulls_.resize((size_ >> 6) + 1, 0);
    nulls_[size_ >> 6] |= uint64_t{1} << (size_ & 63);
  }
  if (type_ == ValueType::kString) {
    const std::string_view s = v.is_null() ? std::string_view() : v.AsString();
    MW_CHECK_LE(bytes_.size() + s.size(), size_t{UINT32_MAX})
        << "string column past 4 GiB";
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  } else if (type_ == ValueType::kInt64) {
    words_.push_back(v.is_null() ? 0 : v.AsInt64());
  } else if (type_ == ValueType::kDouble) {
    words_.push_back(v.is_null() ? 0 : std::bit_cast<int64_t>(v.AsDouble()));
  }
  ++size_;
}

JoinIndex::JoinIndex(const Relation& relation, AttributeId attribute)
    : type_(relation.schema().attribute(attribute).type) {
  const Column& column = relation.column(attribute);
  const size_t num_rows = relation.num_rows();
  const bool integer_keys = type_ == ValueType::kInt64;
  const std::span<const int64_t> ints = column.int64s();
  const auto indexed = [&](size_t r) {
    return !relation.is_deleted(static_cast<RowId>(r)) && !column.is_null(r);
  };
  // An int64 column's key is the cell itself, read off the word array.
  const auto key_of = [&](size_t r) {
    return integer_keys ? ints[r] : KeyOf(column.at(r));
  };
  size_t num_indexed = 0;
  int64_t max_key = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    if (!indexed(r)) continue;
    const int64_t key = key_of(r);
    if (num_indexed == 0 || key < min_key_) min_key_ = key;
    if (num_indexed == 0 || key > max_key) max_key = key;
    ++num_indexed;
  }
  // Unsigned arithmetic: INT64_MAX - INT64_MIN does not overflow.
  const uint64_t key_span =
      static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key_);
  dense_ = integer_keys &&
           (num_indexed == 0 || key_span < 4 * uint64_t{num_indexed});

  // Group of each indexed row (kEmptySlot for the others), then a counting
  // sort of the rows by group: visiting rows in ascending order keeps every
  // group ascending.
  std::vector<uint32_t> group_of(num_rows, kEmptySlot);
  std::vector<uint32_t> counts;
  if (dense_) {
    if (num_indexed > 0) counts.assign(static_cast<size_t>(key_span) + 1, 0);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!indexed(r)) continue;
      group_of[r] = static_cast<uint32_t>(static_cast<uint64_t>(ints[r]) -
                                          static_cast<uint64_t>(min_key_));
      if (counts[group_of[r]]++ == 0) ++num_distinct_;
    }
  } else {
    size_t capacity = 2;
    while (capacity < 2 * num_indexed) capacity *= 2;
    slot_keys_.assign(capacity, 0);
    slot_groups_.assign(capacity, kEmptySlot);
    slot_shift_ = 64 - std::countr_zero(capacity);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!indexed(r)) continue;
      const int64_t key = key_of(r);
      size_t s = Slot(key);
      while (slot_groups_[s] != kEmptySlot &&
             (slot_keys_[s] != key ||
              (!integer_keys &&
               group_values_[slot_groups_[s]] != column.at(r)))) {
        s = (s + 1) & (capacity - 1);
      }
      if (slot_groups_[s] == kEmptySlot) {
        slot_keys_[s] = key;
        slot_groups_[s] = static_cast<uint32_t>(counts.size());
        counts.push_back(0);
        if (!integer_keys) group_values_.push_back(column.at(r));
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
  rows_.resize(num_indexed);
  // counts becomes each group's fill cursor.
  std::copy(starts_.begin(), starts_.end() - 1, counts.begin());
  for (size_t r = 0; r < num_rows; ++r) {
    if (group_of[r] != kEmptySlot) {
      rows_[counts[group_of[r]]++] = static_cast<RowId>(r);
    }
  }
}

RowView::operator Row() const {
  Row row;
  row.reserve(size());
  for (size_t a = 0; a < size(); ++a) row.emplace_back((*this)[a]);
  return row;
}

Relation::Relation(RelationSchema schema)
    : schema_(std::move(schema)),
      published_(std::make_unique<std::atomic<const JoinIndex*>[]>(
          schema_.num_attributes())) {
  columns_.reserve(schema_.num_attributes());
  for (const AttributeSchema& attr : schema_.attributes()) {
    columns_.emplace_back(attr.type);
  }
}

Relation Relation::Clone() const {
  Relation copy(schema_);
  copy.columns_ = columns_;
  copy.num_rows_ = num_rows_;
  copy.deleted_ = deleted_;
  copy.num_deleted_ = num_deleted_;
  return copy;
}

Status Relation::Append(const Row& row) {
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
  for (size_t i = 0; i < row.size(); ++i) columns_[i].Push(row[i]);
  ++num_rows_;
  return Status::OK();
}

RowId Relation::AppendUnchecked(const Row& row) {
  const Status appended = Append(row);
  MW_CHECK(appended.ok()) << appended.ToString();
  return static_cast<RowId>(num_rows_ - 1);
}

Status Relation::Delete(RowId id) {
  if (id < 0 || static_cast<size_t>(id) >= num_rows_) {
    return Status::InvalidArgument(
        StrFormat("relation '%s' has no row %lld", schema_.name().c_str(),
                  static_cast<long long>(id)));
  }
  if (is_deleted(id)) {
    return Status::InvalidArgument(
        StrFormat("relation '%s' row %lld already deleted",
                  schema_.name().c_str(), static_cast<long long>(id)));
  }
  if (deleted_.size() < num_rows_) deleted_.resize(num_rows_, 0);
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
