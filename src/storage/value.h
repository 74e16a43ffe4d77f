// Value: a single relational cell. The paper's samples are strings, but the
// engine also stores integers (surrogate keys) and doubles so FK joins are
// typed. Values are immutable once constructed. ValueView is the borrowed
// form a relation hands out for a stored cell.
#ifndef MWEAVER_STORAGE_VALUE_H_
#define MWEAVER_STORAGE_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/hash_util.h"

namespace mweaver::storage {

enum class ValueType : uint8_t { kNull = 0, kInt64, kDouble, kString };

const char* ValueTypeName(ValueType type);

/// \brief A borrowed cell: null, int64, double, or a string_view into
/// storage the viewer does not own (a relation's string arena, or a Value).
/// Trivially copyable. Equality, ordering, Hash() and ToDisplayString() are
/// the Value ones: a view and the Value with the same content compare equal
/// and hash alike.
class ValueView {
 public:
  /// A NULL view.
  ValueView() = default;
  explicit ValueView(int64_t v) : repr_(v) {}
  explicit ValueView(double v) : repr_(v) {}
  explicit ValueView(std::string_view v) : repr_(v) {}

  ValueType type() const { return static_cast<ValueType>(repr_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong accessor is a programming error
  /// (std::get throws).
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  std::string_view AsString() const {
    return std::get<std::string_view>(repr_);
  }

  /// \brief Renders any value as text (NULL -> "", numbers via to_string).
  /// This is the representation the full-text engine indexes and the
  /// spreadsheet displays.
  std::string ToDisplayString() const;

  size_t Hash() const {
    size_t seed = static_cast<size_t>(type());
    // std::hash<string_view> equals std::hash<string> on the same bytes.
    if (const auto* i = std::get_if<int64_t>(&repr_)) HashCombine(&seed, *i);
    if (const auto* d = std::get_if<double>(&repr_)) HashCombine(&seed, *d);
    if (const auto* s = std::get_if<std::string_view>(&repr_)) {
      HashCombine(&seed, *s);
    }
    return seed;
  }

  /// Ordering across types follows the type (null < int < double <
  /// string); within a type, the natural order.
  friend bool operator==(ValueView a, ValueView b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator<(ValueView a, ValueView b) {
    return a.repr_ < b.repr_;
  }

 private:
  friend class Value;
  std::variant<std::monostate, int64_t, double, std::string_view> repr_;
};

// Declared here too so that Values, which convert to views, find them.
bool operator==(ValueView a, ValueView b);
bool operator<(ValueView a, ValueView b);

/// \brief One relational cell: null, int64, double, or string. Converts
/// implicitly to and from ValueView; comparisons go through the view.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : repr_(std::monostate{}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  explicit Value(const char* v) : repr_(std::string(v)) {}
  /// Materializes a view (copies its string).
  Value(ValueView v);  // NOLINT(google-explicit-constructor)

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong accessor is a programming error
  /// (checked in debug builds via std::get's exception->abort on mismatch).
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// \brief A view of this value, valid while it lives.
  ValueView view() const {
    ValueView view;
    std::visit([&view](const auto& x) { view.repr_ = x; }, repr_);
    return view;
  }
  operator ValueView() const { return view(); }  // NOLINT

  std::string ToDisplayString() const { return view().ToDisplayString(); }
  size_t Hash() const { return view().Hash(); }

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

std::ostream& operator<<(std::ostream& os, ValueView value);
inline std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.view();
}

}  // namespace mweaver::storage

template <>
struct std::hash<mweaver::storage::Value> {
  size_t operator()(const mweaver::storage::Value& v) const {
    return v.Hash();
  }
};

template <>
struct std::hash<mweaver::storage::ValueView> {
  size_t operator()(mweaver::storage::ValueView v) const { return v.Hash(); }
};

#endif  // MWEAVER_STORAGE_VALUE_H_
