// FullTextEngine: approximate keyword search over every searchable attribute
// of a Database. Provides the two primitives TPW needs from the "MySQL
// full-text" substrate: find all occurrences of a sample (Algorithm 1), and
// the verified matching rows of one attribute (used when executing pairwise
// mapping queries and pruning queries).
//
// The engine holds N >= 1 shard index sets: shard s indexes only the rows
// common::ShardOfRow assigns to it, under physical (relation-global) row
// ids, so the shards' verified match sets of one probe are sorted and
// pairwise disjoint. A probe loops over the shards and concatenates their
// results into the sorted vector a one-shard engine would produce, so
// results are byte-identical for any shard count. N = 1 is the degenerate
// case of the same code. Sharding exists to shrink the unit of rebuild, not
// of serving:
//  * Catalog::Publish carries over the shard index sets whose content
//    fingerprint did not change (see Build) and rebuilds only the rest;
//  * TenantWriter::Apply delta-clones only the shards owning the batch's
//    rows (CloneForDelta); the others stay shared with the serving base.
#ifndef MWEAVER_TEXT_FULLTEXT_ENGINE_H_
#define MWEAVER_TEXT_FULLTEXT_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"
#include "text/inverted_index.h"
#include "text/lookup_stats.h"
#include "text/match.h"
#include "text/probe_cache.h"

namespace mweaver::text {

/// \brief Identifies one source attribute (the elements of the location map
/// L(i), e.g. "person.name").
struct AttributeRef {
  storage::RelationId relation = storage::kInvalidRelation;
  storage::AttributeId attribute = storage::kInvalidAttribute;

  bool operator==(const AttributeRef& other) const = default;
  bool operator<(const AttributeRef& other) const {
    return relation != other.relation ? relation < other.relation
                                      : attribute < other.attribute;
  }
};

/// \brief All rows of one attribute that noisily contain a sample.
struct Occurrence {
  AttributeRef attr;
  RowSet rows;  // sorted, verified matches (never null)
};

/// \brief Tuning knobs of the engine's acceleration layer.
struct EngineOptions {
  /// Byte budget of the probe memo (0 disables memoization).
  size_t probe_cache_bytes = 8u << 20;
};

/// \brief Full-text search engine over one database instance.
///
/// Indexes are built eagerly (and in parallel across shards and attributes)
/// at construction for every `searchable` string attribute, each for the
/// engine's policy and so holding only the candidate table that policy
/// probes (see text/inverted_index.h). Verified
/// per-(attribute, sample) match sets are memoized in one byte-bounded LRU
/// ProbeCache per engine, mirroring how a production engine caches hot
/// keyword queries during an interactive session.
class FullTextEngine {
 public:
  /// \brief Builds inverted indexes over `db` as one shard. The database
  /// must outlive the engine and must not change afterwards except through
  /// the delta protocol below (CloneForDelta + ApplyRow*).
  FullTextEngine(const storage::Database* db, MatchPolicy policy,
                 EngineOptions options = {})
      : FullTextEngine(db, policy, 1, options) {}

  /// \brief Builds `shard_count` (clamped to >= 1) shard index sets over
  /// `db`.
  FullTextEngine(const storage::Database* db, MatchPolicy policy,
                 uint32_t shard_count, EngineOptions options = {});

  /// \brief Publish-time factory: builds an engine over `db`, carrying over
  /// `previous`'s shard index sets where `reuse[s]` is true (the caller
  /// verified shard s's content fingerprint is unchanged, so its indexes
  /// are shared as they are) and building the rest. `previous` may be null
  /// and `reuse` empty, which is a full build. The probe memo starts empty.
  /// `shards_rebuilt`, when given, receives how many shards were built.
  static std::unique_ptr<FullTextEngine> Build(
      const storage::Database* db, MatchPolicy policy, uint32_t shard_count,
      const EngineOptions& options, const FullTextEngine* previous,
      const std::vector<bool>& reuse, size_t* shards_rebuilt = nullptr);

  FullTextEngine(const FullTextEngine&) = delete;
  FullTextEngine& operator=(const FullTextEngine&) = delete;

  /// \brief Copy-on-write copy for a streaming update. In the shards listed
  /// in `touched_shards`, the indexes over relations in `touched` are
  /// deep-copied (the caller is about to mutate them via ApplyRowInsert /
  /// ApplyRowDelete); every other index is shared with this engine. The
  /// probe memo is shared too: its entries are keyed by per-relation
  /// version, and every touched relation's version is bumped to
  /// `new_version`, so entries for touched relations go stale by
  /// construction while untouched relations keep their hit rate. `db` is
  /// the delta's own CoW database (same physical row ids as the base).
  std::unique_ptr<FullTextEngine> CloneForDelta(
      const storage::Database* db,
      const std::vector<storage::RelationId>& touched,
      const std::vector<uint32_t>& touched_shards,
      uint64_t new_version) const;

  /// \brief Incrementally indexes a freshly appended row of `relation` in
  /// the shard common::ShardOfRow assigns it to. Only valid on a
  /// CloneForDelta engine whose `touched` relations and `touched_shards`
  /// include the row's, before the engine is published; any other call
  /// aborts rather than mutate an index a serving engine shares.
  void ApplyRowInsert(storage::RelationId relation, storage::RowId row);

  /// \brief Removes a tombstoned row of `relation` from its shard's
  /// indexes. Same ownership restrictions as ApplyRowInsert; the row's
  /// values must still be physically readable (tombstoned, not erased).
  void ApplyRowDelete(storage::RelationId relation, storage::RowId row);

  /// \brief Largest per-index removed-row count among `relation`'s indexes
  /// in the delta-cloned shards (the only ones compaction may rebuild): the
  /// delta-compaction policy input.
  size_t MaxRemovedRows(storage::RelationId relation) const;

  /// \brief Rebuilds every index of `relation` in the delta-cloned shards
  /// from scratch over their live rows, reclaiming dictionary garbage left
  /// by removals. Same ownership restrictions as ApplyRowInsert.
  void CompactRelationIndexes(storage::RelationId relation);

  /// \brief Update version of one relation: 0 at Publish, bumped to the
  /// snapshot's minor epoch whenever a streaming update touches the
  /// relation. Part of the probe-memo key.
  uint64_t relation_version(storage::RelationId relation) const {
    const auto r = static_cast<size_t>(relation);
    return r < rel_versions_.size() ? rel_versions_[r] : 0;
  }

  const storage::Database& db() const { return *db_; }
  const MatchPolicy& policy() const { return policy_; }

  /// \brief All attributes containing `sample`, with their verified matching
  /// rows — one call per sample implements Algorithm 1's location map entry.
  /// `counters`, when given, accumulates probe/memo statistics.
  std::vector<Occurrence> FindOccurrences(
      const std::string& sample, ProbeCounters* counters = nullptr) const;

  /// \brief Verified rows of one attribute that noisily contain `sample`
  /// (sorted, never null). Returns the empty set for non-indexed attributes.
  /// One call records exactly one probe and one memo hit or miss in
  /// `counters` at any shard count; candidate, scan-fallback and kernel
  /// counters sum over the shards probed.
  RowSet MatchingRows(const AttributeRef& attr, const std::string& sample,
                      ProbeCounters* counters = nullptr) const;

  /// \brief True iff the given row's attribute value noisily contains
  /// `sample`.
  bool RowContains(const AttributeRef& attr, storage::RowId row,
                   const std::string& sample) const;

  /// \brief Match score of one cell against a sample (0 when not contained).
  double RowMatchScore(const AttributeRef& attr, storage::RowId row,
                       const std::string& sample) const;

  /// \brief "relation.attribute" display name.
  std::string AttributeName(const AttributeRef& attr) const;

  /// \brief Number of indexed (relation, attribute) columns.
  size_t num_indexed_attributes() const { return indexed_attrs_.size(); }
  /// \brief Searchable numeric columns considered when the policy enables
  /// numeric-sample matching.
  size_t num_numeric_attributes() const { return numeric_attrs_.size(); }

  /// \brief Dense slot of `attr` among this engine's searchable attributes
  /// (indexed string attributes first, then numeric ones), or -1 when not
  /// searchable. Stable for the engine's lifetime and < num_attr_slots();
  /// backs LocationMap's bitset membership probe.
  int AttrSlot(const AttributeRef& attr) const {
    auto it = slot_of_attr_.find(attr);
    return it == slot_of_attr_.end() ? -1 : it->second;
  }
  size_t num_attr_slots() const {
    return indexed_attrs_.size() + numeric_attrs_.size();
  }

  /// \brief Approximate heap footprint of all attribute indexes.
  size_t index_bytes() const;
  ProbeCache::Stats probe_cache_stats() const { return probe_cache_->stats(); }

  /// \brief Number of row-hash shard index sets (>= 1).
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

 private:
  // For Build and CloneForDelta, which fill every member themselves.
  FullTextEngine() = default;

  // Fills every metadata member (attribute discovery, slot numbering,
  // relation versions, a fresh probe memo) without building any index.
  void InitMetadata(const storage::Database* db, MatchPolicy policy,
                    const EngineOptions& options);
  // Fills shards_: shard s is `previous`'s when reuse[s], built otherwise.
  void BuildShards(uint32_t shard_count, const FullTextEngine* previous,
                   const std::vector<bool>& reuse, size_t* shards_rebuilt);
  // The delta-cloned shard owning `row`; aborts when it was not cloned.
  std::vector<std::shared_ptr<InvertedIndex>>& MutableShardOf(
      storage::RowId row);

  std::string CellText(const AttributeRef& attr, storage::RowId row) const;
  bool IsNumericAttr(const AttributeRef& attr) const;
  // Verified rows of a numeric attribute matching a numeric sample.
  std::vector<storage::RowId> NumericMatches(const AttributeRef& attr,
                                             double sample) const;

  const storage::Database* db_ = nullptr;
  MatchPolicy policy_;
  std::vector<AttributeRef> indexed_attrs_;
  // Searchable int64/double columns (no inverted index; matched by scan).
  std::vector<AttributeRef> numeric_attrs_;
  // Dense AttrSlot() numbering over indexed + numeric attributes: indexed
  // attribute i has slot i, which is also its index in each shard set.
  std::map<AttributeRef, int> slot_of_attr_;
  // Per-relation update version (see relation_version()).
  std::vector<uint64_t> rel_versions_;
  // shards_[s][i] indexes indexed_attrs_[i] over the rows of shard s.
  // shared_ptr so a delta engine or a republish shares unchanged indexes
  // with the engine it derives from; only the deep-copied indexes of a
  // delta's touched shards are ever mutated, and only pre-publication.
  std::vector<std::vector<std::shared_ptr<InvertedIndex>>> shards_;
  // True for the shards CloneForDelta deep-copied: the only ones ApplyRow*
  // and CompactRelationIndexes may mutate. All false outside a delta.
  std::vector<bool> mutable_shards_;
  // Byte-bounded memo of verified results (thread-safe: concurrent service
  // workers search one shared engine). Shared across one publish
  // lineage — a Publish mints a fresh cache, streaming deltas reuse their
  // base's, with per-relation versions in the key fencing stale entries.
  // The key carries no policy: every engine of a lineage has the policy
  // its cache was minted with (CloneForDelta copies it).
  // Punctuation-only fallback results are never inserted — see
  // CandidateRows' all_rows_ contract.
  std::shared_ptr<ProbeCache> probe_cache_;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_FULLTEXT_ENGINE_H_
