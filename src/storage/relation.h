// Relation: a schema plus a column-oriented instance I(R) — one typed array
// per attribute — with lazily built per-attribute flat join indexes used for
// FK joins.
#ifndef MWEAVER_STORAGE_RELATION_H_
#define MWEAVER_STORAGE_RELATION_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace mweaver::storage {

/// A materialized row: the append and interchange form of a tuple.
using Row = std::vector<Value>;

/// \brief One attribute's cells, laid out by its declared type: int64 and
/// double cells in one 8-byte word array, strings as one byte arena plus
/// `u32` end offsets, and a null bitmap (empty until the first null) over
/// every type. A cell of the column's type or null is all it can hold.
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {
    if (type_ == ValueType::kString) offsets_.push_back(0);
  }

  ValueType type() const { return type_; }

  bool is_null(size_t row) const {
    const size_t word = row >> 6;
    return word < nulls_.size() && ((nulls_[word] >> (row & 63)) & 1) != 0;
  }
  ValueView at(size_t row) const {
    if (is_null(row) || type_ == ValueType::kNull) return ValueView();
    if (type_ == ValueType::kString) {
      return ValueView(std::string_view(bytes_.data() + offsets_[row],
                                        offsets_[row + 1] - offsets_[row]));
    }
    return type_ == ValueType::kInt64
               ? ValueView(words_[row])
               : ValueView(std::bit_cast<double>(words_[row]));
  }
  /// \brief The int64 cells (0 where null); kInt64 columns only.
  std::span<const int64_t> int64s() const { return words_; }

  /// \brief Appends a cell; null or of the column's type.
  void Push(ValueView v);

 private:
  ValueType type_;
  size_t size_ = 0;
  // kInt64 / kDouble: one word per row (a double's bit pattern).
  std::vector<int64_t> words_;
  // kString: row r's bytes are bytes_[offsets_[r], offsets_[r + 1]).
  std::vector<char> bytes_;
  std::vector<uint32_t> offsets_;
  std::vector<uint64_t> nulls_;
};

class Relation;

/// \brief The flat, immutable equality index of one relation attribute,
/// used for FK joins: the live non-null rows grouped by value in one CSR
/// row array, each group in ascending row order. A value's 64-bit key (the
/// value itself for kInt64, ValueView::Hash() otherwise) finds its group by
/// `key - min` in an int64 column whose key range is at most 4x the indexed
/// rows, and through an open-addressed key table otherwise. Groups of a
/// non-integer column keep their value, which a lookup compares on a key
/// match, so hash collisions never merge two values. A value whose type is
/// not the column's matches nothing.
class JoinIndex {
 public:
  /// \brief Indexes `attribute` over the live rows of `relation`.
  JoinIndex(const Relation& relation, AttributeId attribute);

  /// \brief The key of a non-null value.
  static int64_t KeyOf(ValueView value) {
    return value.type() == ValueType::kInt64
               ? value.AsInt64()
               : static_cast<int64_t>(value.Hash());
  }

  /// \brief Live rows whose value equals `value`, ascending (empty if none
  /// or `value` is null).
  std::span<const RowId> Lookup(ValueView value) const {
    if (value.is_null() || value.type() != type_) return {};
    const int64_t key = KeyOf(value);
    if (dense_) {
      const uint64_t g =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key_);
      return g < starts_.size() - 1 ? Group(g) : std::span<const RowId>();
    }
    const bool integer_keys = type_ == ValueType::kInt64;
    for (size_t s = Slot(key);; s = (s + 1) & (slot_groups_.size() - 1)) {
      const uint32_t g = slot_groups_[s];
      if (g == kEmptySlot) return {};
      if (slot_keys_[s] == key &&
          (integer_keys || group_values_[g] == value)) {
        return Group(g);
      }
    }
  }

  size_t num_distinct() const { return num_distinct_; }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  std::span<const RowId> Group(size_t g) const {
    return {rows_.data() + starts_[g], rows_.data() + starts_[g + 1]};
  }
  // Fibonacci hashing into the power-of-two key table.
  size_t Slot(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> slot_shift_);
  }

  // Group g's rows are rows_[starts_[g], starts_[g + 1]).
  std::vector<RowId> rows_;
  std::vector<uint32_t> starts_{0};
  // The indexed column's type.
  ValueType type_;
  // Dense addressing (kInt64 only): group = key - min_key_, empty groups
  // included.
  bool dense_ = false;
  int64_t min_key_ = 0;
  // Open addressing otherwise: linear probing over a power-of-two table at
  // most half full; slot_groups_ holds kEmptySlot or a group id.
  std::vector<int64_t> slot_keys_;
  std::vector<uint32_t> slot_groups_;
  int slot_shift_ = 0;
  // Non-integer columns only: each group's value.
  std::vector<Value> group_values_;
  size_t num_distinct_ = 0;
};

/// \brief One row of a relation, read through its columns. Cheap to copy;
/// valid while the relation lives and is not appended to. Converts to a
/// materialized Row.
class RowView {
 public:
  RowView(const Relation* relation, RowId row)
      : relation_(relation), row_(row) {}

  size_t size() const;
  ValueView operator[](size_t attribute) const;
  operator Row() const;  // NOLINT(google-explicit-constructor)

 private:
  const Relation* relation_;
  RowId row_;
};

/// \brief A relation instance: rows conforming to a schema, stored as one
/// typed Column per attribute. Rows are appended at the tail and deleted by
/// tombstone — a deleted row keeps its physical slot (and therefore its
/// RowId), so posting lists, location maps and FK edges built against older
/// revisions never see ids shift under them. Physical compaction happens
/// only on a full rebuild (Publish).
class Relation {
 public:
  explicit Relation(RelationSchema schema);

  // Indexes hold row ids; moving is fine, implicit copying would be
  // wasteful. Deliberate deep copies go through Clone().
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// \brief Deep copy of schema, columns and tombstones: a few array copies
  /// per attribute, whatever the row count. Lazily built join indexes are
  /// NOT copied — the clone rebuilds them on first use (they index by row
  /// id, which survives the copy, but sharing them would couple lifetimes).
  Relation Clone() const;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// \brief Appends a row. Fails if the arity does not match the schema or a
  /// non-null value's type contradicts the declared attribute type.
  Status Append(const Row& row);

  /// \brief Append for trusted bulk loads (generators): a row Append would
  /// reject — wrong arity, or a value its typed column cannot hold — is a
  /// programming error (MW_CHECK). Returns the new row's id. Both abort once
  /// an index is built: an index covers only the rows present at its build.
  RowId AppendUnchecked(const Row& row);

  /// \brief Tombstones row `id`. Fails if the id is out of range or the row
  /// is already deleted. Drops lazily built join indexes (they are rebuilt,
  /// skipping tombstones, on next use); only call on relations not
  /// concurrently served — in practice the private clones a delta build
  /// mutates before its snapshot is installed.
  Status Delete(RowId id);

  bool is_deleted(RowId id) const {
    const auto i = static_cast<size_t>(id);
    return i < deleted_.size() && deleted_[i] != 0;
  }

  /// \brief Physical row count, tombstoned slots included. RowIds range
  /// over [0, num_rows()).
  size_t num_rows() const { return num_rows_; }
  size_t num_deleted() const { return num_deleted_; }
  size_t num_live_rows() const { return num_rows_ - num_deleted_; }
  RowView row(RowId id) const { return RowView(this, id); }
  ValueView at(RowId row, AttributeId attr) const {
    return columns_[static_cast<size_t>(attr)].at(static_cast<size_t>(row));
  }
  const Column& column(AttributeId attr) const {
    return columns_[static_cast<size_t>(attr)];
  }

  /// \brief Join index on `attribute`, built on first use. Thread-safe:
  /// once built, the index is read through an atomic pointer without a
  /// lock; only the first use of an attribute takes the mutex, so racing
  /// callers build it once. The returned index is immutable afterwards.
  const JoinIndex& IndexOn(AttributeId attribute) const;

 private:
  RelationSchema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  // Tombstone flags, indexed by RowId; empty until the first Delete (the
  // common read-only relation pays nothing).
  std::vector<uint8_t> deleted_;
  size_t num_deleted_ = 0;
  // Lazily built indexes, owned here and touched only under *index_mutex_
  // (builders and Delete); mutable because building an index does not
  // change the logical relation contents.
  mutable std::vector<std::unique_ptr<JoinIndex>> indexes_;
  // Per-attribute pointer into indexes_, published with a release store
  // once built; IndexOn's read path is one acquire load. Sized at
  // construction so readers never race a resize. The atomics and the mutex
  // live behind pointers so the relation stays movable.
  std::unique_ptr<std::atomic<const JoinIndex*>[]> published_;
  mutable std::unique_ptr<std::mutex> index_mutex_ =
      std::make_unique<std::mutex>();
};

inline size_t RowView::size() const {
  return relation_->schema().num_attributes();
}
inline ValueView RowView::operator[](size_t attribute) const {
  return relation_->at(row_, static_cast<AttributeId>(attribute));
}

}  // namespace mweaver::storage

#endif  // MWEAVER_STORAGE_RELATION_H_
