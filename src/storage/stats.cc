#include "storage/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_set>

namespace mweaver::storage {

namespace {

// Streaming accumulator shared by the column and value-bag entry points.
class StatsAccumulator {
 public:
  void AddNull() { ++rows_; ++nulls_; }

  void Add(const std::string& text, bool typed_numeric) {
    ++rows_;
    distinct_.insert(text);
    total_length_ += text.size();
    bool numeric = typed_numeric;
    if (!numeric && !text.empty()) {
      char* end = nullptr;
      std::strtod(text.c_str(), &end);
      numeric = end == text.c_str() + text.size();
    }
    if (numeric) ++numeric_values_;
    for (char c : text) {
      ++total_chars_;
      const unsigned char uc = static_cast<unsigned char>(c);
      if (std::isalpha(uc)) {
        ++classes_[0];
      } else if (std::isdigit(uc)) {
        ++classes_[1];
      } else if (std::isspace(uc)) {
        ++classes_[2];
      } else {
        ++classes_[3];
      }
    }
  }

  ColumnStats Finish() const {
    ColumnStats stats;
    stats.num_rows = rows_;
    stats.num_nulls = nulls_;
    stats.num_distinct = distinct_.size();
    const size_t non_null = rows_ - nulls_;
    if (non_null > 0) {
      stats.avg_length = static_cast<double>(total_length_) /
                         static_cast<double>(non_null);
      stats.numeric_fraction = static_cast<double>(numeric_values_) /
                               static_cast<double>(non_null);
    }
    if (total_chars_ > 0) {
      for (size_t i = 0; i < 4; ++i) {
        stats.char_classes[i] = static_cast<double>(classes_[i]) /
                                static_cast<double>(total_chars_);
      }
    }
    return stats;
  }

 private:
  size_t rows_ = 0;
  size_t nulls_ = 0;
  std::unordered_set<std::string> distinct_;
  size_t total_length_ = 0;
  size_t numeric_values_ = 0;
  std::array<size_t, 4> classes_{};
  size_t total_chars_ = 0;
};

}  // namespace

ColumnStats ComputeColumnStats(const Relation& relation,
                               AttributeId attribute) {
  StatsAccumulator acc;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (relation.is_deleted(static_cast<RowId>(r))) continue;
    const ValueView v = relation.at(static_cast<RowId>(r), attribute);
    if (v.is_null()) {
      acc.AddNull();
      continue;
    }
    acc.Add(v.ToDisplayString(),
            v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble);
  }
  return acc.Finish();
}

ColumnStats ComputeValueStats(const std::vector<std::string>& values) {
  StatsAccumulator acc;
  for (const std::string& v : values) acc.Add(v, /*typed_numeric=*/false);
  return acc.Finish();
}

double ShapeSimilarity(const ColumnStats& a, const ColumnStats& b) {
  // Length closeness: ratio of the smaller to the larger mean length.
  double length_sim = 1.0;
  if (a.avg_length > 0.0 || b.avg_length > 0.0) {
    const double lo = std::min(a.avg_length, b.avg_length);
    const double hi = std::max(a.avg_length, b.avg_length);
    length_sim = hi == 0.0 ? 1.0 : lo / hi;
  }
  // Numeric-fraction closeness.
  const double numeric_sim =
      1.0 - std::fabs(a.numeric_fraction - b.numeric_fraction);
  // Character-class histogram overlap (1 - L1/2).
  double l1 = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    l1 += std::fabs(a.char_classes[i] - b.char_classes[i]);
  }
  const double class_sim = 1.0 - l1 / 2.0;
  return (length_sim + numeric_sim + class_sim) / 3.0;
}

}  // namespace mweaver::storage
