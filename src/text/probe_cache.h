// ProbeCache: the bounded probe memo of the full-text engine. One
// interactive session re-probes the same user sample across every indexed
// attribute (Algorithm 1's location map) and again on every pruning
// iteration, so after the first weave nearly all probes repeat; the memo
// answers them without touching the indexes.
//
// Keyed on (relation, attribute, policy fingerprint, sample); bounded by a
// byte budget with LRU eviction. Entries hold shared_ptr-backed row sets so
// handles returned to callers survive eviction. Two guards keep degenerate
// probes from flushing the useful working set:
//  * the engine never inserts punctuation-only fallback results (they are
//    all_rows_-sized and recomputing them is a trivial copy anyway);
//  * the cache itself rejects any single entry larger than a quarter of
//    the budget.
#ifndef MWEAVER_TEXT_PROBE_CACHE_H_
#define MWEAVER_TEXT_PROBE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"

namespace mweaver::text {

/// \brief A shared, immutable, sorted set of matching row ids. Shared
/// ownership keeps handles valid after the cache evicts the entry.
using RowSet = std::shared_ptr<const std::vector<storage::RowId>>;

/// \brief The canonical empty row set (never null).
const RowSet& EmptyRowSet();

/// \brief Thread-safe byte-bounded LRU memo of verified probe results.
class ProbeCache {
 public:
  struct Stats {
    size_t entries = 0;
    size_t bytes_used = 0;
    uint64_t evictions = 0;
    uint64_t rejected_oversize = 0;
  };

  /// \brief `budget_bytes` caps the summed entry footprints (0 disables
  /// caching entirely: every Lookup misses, every Insert is dropped).
  explicit ProbeCache(size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  ProbeCache(const ProbeCache&) = delete;
  ProbeCache& operator=(const ProbeCache&) = delete;

  /// \brief Returns the cached row set or nullptr; a hit refreshes LRU
  /// recency. `version` is the relation's update epoch (see
  /// FullTextEngine::relation_version): an entry cached against an older
  /// version of the relation simply never matches again — stale results
  /// die by construction, no sweep required, while entries for untouched
  /// relations keep hitting.
  RowSet Lookup(storage::RelationId relation, storage::AttributeId attribute,
                uint64_t policy_fp, uint64_t version, std::string_view sample);

  /// \brief Inserts (replacing any stale entry), then evicts least-recently
  /// used entries until within budget. Oversized entries (> budget/4) are
  /// rejected outright.
  void Insert(storage::RelationId relation, storage::AttributeId attribute,
              uint64_t policy_fp, uint64_t version, std::string_view sample,
              RowSet rows);

  Stats stats() const;
  size_t budget_bytes() const { return budget_bytes_; }

 private:
  // A lookup key that borrows its sample: hashing and equality are defined
  // over this view only, so Lookup finds an entry without building the
  // owning Key's std::string (a hit allocates nothing).
  struct KeyView {
    storage::RelationId relation;
    storage::AttributeId attribute;
    uint64_t policy_fp;
    uint64_t version;
    std::string_view sample;

    bool operator==(const KeyView& other) const = default;
  };
  struct Key {
    storage::RelationId relation;
    storage::AttributeId attribute;
    uint64_t policy_fp;
    uint64_t version;
    std::string sample;

    operator KeyView() const {  // NOLINT(google-explicit-constructor)
      return KeyView{relation, attribute, policy_fp, version, sample};
    }
  };
  struct Entry {
    RowSet rows;
    size_t bytes = 0;
    std::list<const Key*>::iterator lru_it;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyView& k) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a == b;
    }
  };
  using EntryMap = std::unordered_map<Key, Entry, KeyHash, KeyEq>;

  static size_t EntryBytes(const Key& key, const RowSet& rows);
  // Drops `it`'s entry; caller holds mu_.
  void EvictLocked(EntryMap::iterator it);

  const size_t budget_bytes_;
  mutable std::mutex mu_;
  EntryMap entries_;
  // Most-recent first; points at the map's stable key storage.
  std::list<const Key*> lru_;
  size_t bytes_used_ = 0;
  uint64_t evictions_ = 0;
  uint64_t rejected_oversize_ = 0;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_PROBE_CACHE_H_
