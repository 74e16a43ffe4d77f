#include "core/location_map.h"

#include <algorithm>

#include "common/logging.h"

namespace mweaver::core {

void LocationMap::FinalizeColumn(size_t i,
                                 const text::FullTextEngine* engine) {
  const ColumnLocations& col = columns_[i];
  std::vector<text::AttributeRef>& attrs = attrs_[i];
  attrs.clear();
  attrs.reserve(col.occurrences.size());
  for (const text::Occurrence& occ : col.occurrences) {
    attrs.push_back(occ.attr);
  }
  if (engine != nullptr) {
    std::vector<uint64_t>& bits = slot_bits_[i];
    bits.assign((engine->num_attr_slots() + 63) / 64, 0);
    for (const text::AttributeRef& attr : attrs) {
      const int slot = engine->AttrSlot(attr);
      if (slot >= 0) {
        bits[static_cast<size_t>(slot) >> 6] |=
            uint64_t{1} << (static_cast<size_t>(slot) & 63);
      }
    }
  } else {
    std::vector<text::AttributeRef>& sorted = sorted_attrs_[i];
    sorted = attrs;
    std::sort(sorted.begin(), sorted.end());
  }
}

LocationMap LocationMap::Build(const text::FullTextEngine& engine,
                               const std::vector<std::string>& sample_tuple,
                               ExecutionContext* ctx, size_t threads) {
  MW_CHECK(threads <= 1) << "a search runs on its caller's thread";
  LocationMap map;
  map.engine_ = &engine;
  map.built_versions_ = engine.relation_versions();
  map.columns_.resize(sample_tuple.size());
  map.attrs_.resize(sample_tuple.size());
  map.slot_bits_.resize(sample_tuple.size());
  for (size_t i = 0; i < sample_tuple.size(); ++i) {
    ColumnLocations& col = map.columns_[i];
    col.target_column = static_cast<int>(i);
    col.sample = sample_tuple[i];
    if (!col.sample.empty() && !(ctx != nullptr && ctx->ShouldStop())) {
      col.occurrences = engine.FindOccurrences(
          col.sample, ctx != nullptr ? &ctx->probe_counters() : nullptr);
    }
    map.FinalizeColumn(i, &engine);
  }
  return map;
}

LocationMap LocationMap::FromAttributes(
    const std::vector<std::vector<text::AttributeRef>>& attrs_per_column,
    const std::vector<std::string>& samples) {
  LocationMap map;
  map.columns_.reserve(attrs_per_column.size());
  map.attrs_.resize(attrs_per_column.size());
  map.sorted_attrs_.resize(attrs_per_column.size());
  for (size_t i = 0; i < attrs_per_column.size(); ++i) {
    ColumnLocations col;
    col.target_column = static_cast<int>(i);
    if (i < samples.size()) col.sample = samples[i];
    for (const text::AttributeRef& attr : attrs_per_column[i]) {
      col.occurrences.push_back(text::Occurrence{attr, text::EmptyRowSet()});
    }
    map.columns_.push_back(std::move(col));
    map.FinalizeColumn(i, nullptr);
  }
  return map;
}

bool LocationMap::Contains(size_t i, const text::AttributeRef& attr) const {
  if (engine_ != nullptr) {
    const int slot = engine_->AttrSlot(attr);
    if (slot < 0) return false;
    const std::vector<uint64_t>& bits = slot_bits_[i];
    const size_t word = static_cast<size_t>(slot) >> 6;
    return word < bits.size() &&
           ((bits[word] >> (static_cast<size_t>(slot) & 63)) & 1) != 0;
  }
  const std::vector<text::AttributeRef>& sorted = sorted_attrs_[i];
  return std::binary_search(sorted.begin(), sorted.end(), attr);
}

size_t LocationMap::TotalOccurrences() const {
  size_t total = 0;
  for (const ColumnLocations& col : columns_) total += col.occurrences.size();
  return total;
}

bool LocationMap::StaleVersusEngine(const text::FullTextEngine& engine,
                                    const graph::SchemaGraph& graph) const {
  if (built_versions_.empty()) return true;  // FromAttributes: no stamp
  const std::vector<uint64_t>& now = engine.relation_versions();
  if (now.size() != built_versions_.size()) return true;  // schema changed
  const auto changed = [&](storage::RelationId rel) {
    const auto r = static_cast<size_t>(rel);
    return now[r] != built_versions_[r];
  };
  for (const auto& attrs : attrs_) {
    for (const text::AttributeRef& attr : attrs) {
      if (changed(attr.relation)) return true;
      for (const graph::SchemaEdge& edge : graph.Neighbors(attr.relation)) {
        if (changed(edge.neighbor)) return true;
      }
    }
  }
  return false;
}

}  // namespace mweaver::core
