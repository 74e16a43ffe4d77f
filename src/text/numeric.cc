#include "text/numeric.h"

#include <cmath>
#include <cstdlib>
#include <string>

namespace mweaver::text {

std::optional<double> ParseNumeric(std::string_view s) {
  if (s.empty()) return std::nullopt;
  const std::string buffer(s);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

bool NumericEquals(storage::ValueView value, double sample) {
  switch (value.type()) {
    case storage::ValueType::kInt64: {
      // Exact: the sample must be the integer itself.
      const double v = static_cast<double>(value.AsInt64());
      return v == sample &&
             static_cast<int64_t>(sample) == value.AsInt64();
    }
    case storage::ValueType::kDouble: {
      const double v = value.AsDouble();
      if (v == sample) return true;
      const double scale = std::max(std::fabs(v), std::fabs(sample));
      return std::fabs(v - sample) <= 1e-9 * scale;
    }
    default:
      return false;
  }
}

}  // namespace mweaver::text
