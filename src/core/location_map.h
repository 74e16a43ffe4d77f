// LocateSamples (Algorithm 1): the location map L, where L(i) is the set of
// source attributes (with their verified matching rows) that noisily
// contain sample E_i.
#ifndef MWEAVER_CORE_LOCATION_MAP_H_
#define MWEAVER_CORE_LOCATION_MAP_H_

#include <string>
#include <vector>

#include "core/execution_context.h"
#include "graph/schema_graph.h"
#include "text/fulltext_engine.h"

namespace mweaver::core {

/// \brief L(i) for one target column.
struct ColumnLocations {
  int target_column = -1;
  std::string sample;
  std::vector<text::Occurrence> occurrences;
};

/// \brief The location map L for a sample tuple.
class LocationMap {
 public:
  /// \brief Runs Algorithm 1: one full-text lookup per sample. Empty
  /// samples yield empty occurrence lists (the caller decides whether that
  /// is an error; the Session requires a fully-populated first row). When
  /// `ctx` is given, the deadline/cancel token is polled before each column
  /// lookup; columns not examined after a stop are left empty. A search
  /// runs on its caller's thread: `threads` exists only for callers that
  /// still pass a thread count (the session benchmark) and must be <= 1.
  static LocationMap Build(const text::FullTextEngine& engine,
                           const std::vector<std::string>& sample_tuple,
                           ExecutionContext* ctx = nullptr,
                           size_t threads = 1);

  /// \brief Builds a location map from explicit attribute sets (no
  /// occurrence rows). Used by schema-level enumeration (the naive baseline
  /// and the match-driven tool), where the per-column attributes are given
  /// rather than discovered.
  static LocationMap FromAttributes(
      const std::vector<std::vector<text::AttributeRef>>& attrs_per_column,
      const std::vector<std::string>& samples = {});

  size_t num_columns() const { return columns_.size(); }
  const ColumnLocations& column(size_t i) const { return columns_[i]; }

  /// \brief All attributes in L(i), in occurrence order. Precomputed at
  /// build time — callers used to pay a vector allocation per call.
  const std::vector<text::AttributeRef>& AttributesOf(size_t i) const {
    return attrs_[i];
  }

  /// \brief True iff attribute `attr` contains sample i. A single bit probe
  /// against the engine's dense attribute-slot numbering when the map was
  /// built from an engine; a binary search over sorted attributes otherwise
  /// (FromAttributes has no slot universe). Never a linear scan.
  bool Contains(size_t i, const text::AttributeRef& attr) const;

  /// \brief Total number of (column, attribute) occurrence entries.
  size_t TotalOccurrences() const;

  /// \brief FK-graph-aware invalidation check against a newer engine in the
  /// same snapshot lineage. The map is stale iff any relation that could
  /// change its contents moved to a newer update version: a relation one of
  /// its occurrences lives in (the occurrence row sets would differ), or an
  /// FK neighbor of such a relation in `graph` (joins out of the occurrence
  /// rows would land on different tuples). Updates confined to relations
  /// outside that neighborhood leave the map exactly reusable — the hook a
  /// session-migration path uses to decide between re-locating and keeping
  /// its frozen map. Build() captures the engine's per-relation versions;
  /// maps built by FromAttributes (no engine) are always reported stale.
  bool StaleVersusEngine(const text::FullTextEngine& engine,
                         const graph::SchemaGraph& graph) const;

 private:
  // Derives attrs_/slot_bits_/sorted_attrs_ for column i from its
  // occurrences.
  void FinalizeColumn(size_t i, const text::FullTextEngine* engine);

  std::vector<ColumnLocations> columns_;
  // Per-column attribute list in occurrence order (AttributesOf).
  std::vector<std::vector<text::AttributeRef>> attrs_;
  // Per-column membership bitset over engine->AttrSlot() when built from an
  // engine; engine_ is null (and slot_bits_ unused) for FromAttributes maps.
  const text::FullTextEngine* engine_ = nullptr;
  std::vector<std::vector<uint64_t>> slot_bits_;
  // Per-relation update versions captured from the engine at Build time;
  // StaleVersusEngine diffs these against a newer engine's.
  std::vector<uint64_t> built_versions_;
  // Per-column sorted attribute list (Contains fallback without an engine).
  std::vector<std::vector<text::AttributeRef>> sorted_attrs_;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_LOCATION_MAP_H_
