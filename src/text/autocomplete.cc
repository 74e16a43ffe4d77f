#include "text/autocomplete.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::text {

ValueDictionary::ValueDictionary(const storage::Database* db) {
  MW_CHECK(db != nullptr);
  for (size_t r = 0; r < db->num_relations(); ++r) {
    const storage::Relation& rel =
        db->relation(static_cast<storage::RelationId>(r));
    for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
      const storage::AttributeSchema& attr = rel.schema().attributes()[a];
      if (!attr.searchable || attr.type != storage::ValueType::kString) {
        continue;
      }
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        if (rel.is_deleted(static_cast<storage::RowId>(row))) continue;
        const storage::ValueView v = rel.at(
            static_cast<storage::RowId>(row),
            static_cast<storage::AttributeId>(a));
        if (v.is_null() || v.AsString().empty()) continue;
        entries_.emplace_back(ToLower(v.AsString()), v.AsString());
      }
    }
  }
  std::sort(entries_.begin(), entries_.end());
  entries_.erase(std::unique(entries_.begin(), entries_.end()),
                 entries_.end());
}

std::vector<std::string> ValueDictionary::Suggest(const std::string& prefix,
                                                  size_t limit) const {
  const std::string key = ToLower(prefix);
  std::vector<std::string> out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  std::string last;
  for (; it != entries_.end() && out.size() < limit; ++it) {
    if (it->first.compare(0, key.size(), key) != 0) break;
    if (it->second == last) continue;  // values differing only in case
    out.push_back(it->second);
    last = it->second;
  }
  return out;
}

bool ValueDictionary::Contains(const std::string& value) const {
  const std::pair<std::string, std::string> probe{ToLower(value), value};
  return std::binary_search(entries_.begin(), entries_.end(), probe);
}

}  // namespace mweaver::text
