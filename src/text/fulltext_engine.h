// FullTextEngine: approximate keyword search over every searchable attribute
// of a Database. Provides the two primitives TPW needs from the "MySQL
// full-text" substrate: find all occurrences of a sample (Algorithm 1), and
// the verified matching rows of one attribute (used when executing pairwise
// mapping queries and pruning queries).
//
// One text::Vocabulary per engine holds every distinct token of every
// indexed attribute, the policy's candidate table over them, and for each
// token the attribute slots that hold it. A probe tokenizes and resolves
// its sample there once; FindOccurrences then visits only the attributes
// that hold a match for every sample token, and each attribute's index
// contributes nothing but its postings, keyed by vocabulary token id.
//
// The engine keeps exactly one InvertedIndex per indexed attribute, the
// paper's one full-text index per source attribute (Appendix A.1). A
// streaming update (CloneForDelta) copies only the indexes of the
// relations it touches and shares every other one with its base; its row
// inserts and deletes leave each touched index holding exactly what a
// fresh build over the live rows would.
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
#include "text/vocabulary.h"

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
/// Indexes are built eagerly at construction for every `searchable` string
/// attribute by InvertedIndex::Build (tokenized in parallel across
/// attributes, then filed into the engine's vocabulary). Verified
/// per-(attribute, sample) match sets are memoized in one byte-bounded LRU
/// ProbeCache per engine, mirroring how a production engine caches hot
/// keyword queries during an interactive session.
class FullTextEngine {
 public:
  /// \brief Builds one inverted index per indexed attribute of `db`. The
  /// database must outlive the engine and must not change afterwards
  /// except through the delta protocol below (CloneForDelta + ApplyRow*).
  FullTextEngine(const storage::Database* db, MatchPolicy policy,
                 EngineOptions options = {});

  FullTextEngine(const FullTextEngine&) = delete;
  FullTextEngine& operator=(const FullTextEngine&) = delete;

  /// \brief Copy-on-write copy for a streaming update. The indexes over
  /// relations in `touched` are deep-copied (the caller is about to mutate
  /// them via ApplyRowInsert / ApplyRowDelete); every other index is shared
  /// with this engine. The vocabulary is shared until an insert brings a
  /// (token, attribute) pair it lacks, which copies it once. The probe memo
  /// is shared too: its entries are keyed by per-relation version, and
  /// every touched relation's version is bumped to `new_version`, so
  /// entries for touched relations go stale by construction while
  /// untouched relations keep their hit rate. `db` is the delta's own CoW
  /// database (same physical row ids as the base).
  std::unique_ptr<FullTextEngine> CloneForDelta(
      const storage::Database* db,
      const std::vector<storage::RelationId>& touched,
      uint64_t new_version) const;

  /// \brief Incrementally indexes a freshly appended row of `relation`.
  /// Only valid on a CloneForDelta engine whose `touched` relations include
  /// `relation`, before the engine is published; a call on any other
  /// engine aborts rather than mutate an index a serving engine shares.
  void ApplyRowInsert(storage::RelationId relation, storage::RowId row);

  /// \brief Removes a tombstoned row of `relation` from its indexes. Same
  /// ownership restrictions as ApplyRowInsert; the row's values must still
  /// be physically readable (tombstoned, not erased).
  void ApplyRowDelete(storage::RelationId relation, storage::RowId row);

  /// \brief Update version of one relation: 0 at Publish, bumped to the
  /// snapshot's minor epoch whenever a streaming update touches the
  /// relation. Part of the probe-memo key.
  uint64_t relation_version(storage::RelationId relation) const {
    const auto r = static_cast<size_t>(relation);
    return r < rel_versions_.size() ? rel_versions_[r] : 0;
  }

  const storage::Database& db() const { return *db_; }
  const MatchPolicy& policy() const { return policy_; }
  /// \brief The vocabulary every index of this engine is filed into.
  const Vocabulary& vocabulary() const { return *vocab_; }

  /// \brief All attributes containing `sample`, with their verified matching
  /// rows — one call per sample implements Algorithm 1's location map entry.
  /// The sample is resolved against the vocabulary once, and only the
  /// indexed attributes that hold a match for each of its tokens (every
  /// one for a punctuation-only sample) are probed and memoized, plus
  /// every numeric attribute for a numeric sample under match_numeric.
  /// `counters`, when given, accumulates probe/memo statistics: one probe
  /// per attribute visited, and the resolution's candidates and kernels.
  std::vector<Occurrence> FindOccurrences(
      const std::string& sample, ProbeCounters* counters = nullptr) const;

  /// \brief Verified rows of one attribute that noisily contain `sample`
  /// (sorted, never null). Returns the empty set for non-indexed attributes.
  /// One call records exactly one probe and one memo hit or miss in
  /// `counters`, plus the candidate, scan-fallback and kernel counters of
  /// a miss.
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

  /// \brief Approximate heap footprint of all attribute indexes and the
  /// vocabulary.
  size_t index_bytes() const;
  ProbeCache::Stats probe_cache_stats() const { return probe_cache_->stats(); }

 private:
  // For CloneForDelta, which fills every member itself.
  FullTextEngine() = default;

  // ApplyRowInsert (`insert`) or ApplyRowDelete. Aborts unless this engine
  // is a CloneForDelta copy: the only kind whose touched indexes are its
  // own to mutate.
  void ApplyRow(storage::RelationId relation, storage::RowId row,
                bool insert);
  // One memoized probe of `attr` (searchable slot `slot`, or -1): the memo
  // entry, or the verified rows inserted into the memo. An indexed
  // attribute's miss reads `resolved`, or resolves `sample` itself when
  // it is null.
  RowSet Probe(const AttributeRef& attr, int slot, const std::string& sample,
               const ResolvedSample* resolved,
               ProbeCounters* counters) const;
  // One indexed attribute's memo miss: candidates from the vocabulary,
  // verified against the cells.
  std::vector<storage::RowId> VerifiedRows(const AttributeRef& attr,
                                           uint32_t slot,
                                           const ResolvedSample& resolved,
                                           ProbeStats* stats) const;
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
  // attribute i has slot i, which is also its position in indexes_.
  std::map<AttributeRef, int> slot_of_attr_;
  // Per-relation update version (see relation_version()).
  std::vector<uint64_t> rel_versions_;
  // indexes_[i] indexes indexed_attrs_[i]. shared_ptr so a delta engine
  // shares unchanged indexes with the engine it derives from; only the
  // deep-copied indexes of a delta's touched relations are ever mutated,
  // and only pre-publication.
  std::vector<std::shared_ptr<InvertedIndex>> indexes_;
  // The tenant vocabulary over every index (see the file comment). Shared
  // by a delta engine with its base until ApplyRow copies it
  // (vocab_owned_); only an owned copy is ever mutated, and only
  // pre-publication.
  std::shared_ptr<Vocabulary> vocab_;
  bool vocab_owned_ = false;
  // True only for a CloneForDelta copy: the one kind of engine ApplyRow*
  // may mutate.
  bool delta_ = false;
  // Byte-bounded memo of verified results (thread-safe: concurrent service
  // workers search one shared engine). Shared across one publish
  // lineage — a Publish mints a fresh cache, streaming deltas reuse their
  // base's, with per-relation versions in the key fencing stale entries.
  // The key carries no policy: every engine of a lineage has the policy
  // its cache was minted with (CloneForDelta copies it).
  // Punctuation-only fallback results are never inserted — see
  // Vocabulary::CandidateRows' all-rows contract.
  std::shared_ptr<ProbeCache> probe_cache_;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_FULLTEXT_ENGINE_H_
