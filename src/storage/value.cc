#include "storage/value.h"

#include <type_traits>

#include "common/string_util.h"

namespace mweaver::storage {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

std::string ValueView::ToDisplayString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      // Trim trailing zeros so 2.5 renders as "2.5" and 3.0 as "3".
      return StrFormat("%g", AsDouble());
    case ValueType::kString:
      return std::string(AsString());
  }
  return "";
}

Value::Value(ValueView v)
    : repr_(std::visit(
          [](const auto& x) -> decltype(repr_) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, std::string_view>) {
              return std::string(x);
            } else {
              return x;
            }
          },
          v.repr_)) {}

std::ostream& operator<<(std::ostream& os, ValueView value) {
  if (value.is_null()) return os << "NULL";
  if (value.type() == ValueType::kString) {
    return os << '\'' << value.AsString() << '\'';
  }
  return os << value.ToDisplayString();
}

}  // namespace mweaver::storage
