// Numeric sample support (the paper's §7: "If the source contains many
// numerical attributes, a numerical sample may be contained by multiple
// source attributes"). When a policy opts in, samples that parse as numbers
// also match numeric (int64/double) attribute values, so users can type
// quantities, years or ratings as samples.
#ifndef MWEAVER_TEXT_NUMERIC_H_
#define MWEAVER_TEXT_NUMERIC_H_

#include <optional>
#include <string_view>

#include "storage/value.h"

namespace mweaver::text {

/// \brief Parses `s` as a number (integer or decimal, optional sign);
/// nullopt when `s` is not entirely numeric.
std::optional<double> ParseNumeric(std::string_view s);

/// \brief True iff numeric `value` equals `sample` (int64: exactly;
/// double: within relative tolerance 1e-9). Non-numeric and null values
/// never match.
bool NumericEquals(storage::ValueView value, double sample);

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_NUMERIC_H_
