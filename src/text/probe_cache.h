// ProbeCache: the bounded probe memo of the full-text engine. One
// interactive session re-probes the same user sample across the attributes
// that can hold it (Algorithm 1's location map) and again on every pruning
// iteration, so after the first weave nearly all probes repeat; the memo
// answers them without touching the indexes.
//
// Keyed on (relation, attribute, relation version, sample) — no match
// policy: a cache serves one engine lineage, which fixes one policy.
// Bounded by a byte budget with LRU eviction. Entries hold shared_ptr-backed
// row sets so handles returned to callers survive eviction. Two guards keep
// degenerate probes from flushing the useful working set:
//  * the engine never inserts punctuation-only fallback results (they are
//    all_rows_-sized and recomputing them is a trivial copy anyway);
//  * the cache itself rejects any single entry larger than a quarter of
//    its stripe's budget.
//
// Every worker's probes go through one engine's memo, so the memo is split
// into S lock stripes chosen by key hash: S = clamp(budget / 512 KiB, 1, 16)
// is fixed by the budget (16 at the default 8 MiB). Each stripe is an exact
// LRU over budget / S bytes, so the summed footprint stays within the
// budget, and S = 1 (any budget under 1 MiB) is a single LRU over the whole
// budget.
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

/// \brief Thread-safe byte-bounded LRU memo of verified probe results,
/// split into lock stripes (see the file comment).
class ProbeCache {
 public:
  struct Stats {
    size_t entries = 0;
    size_t bytes_used = 0;
    uint64_t evictions = 0;
    uint64_t rejected_oversize = 0;
  };

  /// One stripe per this many budget bytes, at most kMaxStripes.
  static constexpr size_t kStripeBytes = size_t{512} << 10;
  static constexpr size_t kMaxStripes = 16;

  /// \brief `budget_bytes` caps the summed entry footprints (0 disables
  /// caching entirely: every Lookup misses, every Insert is dropped).
  explicit ProbeCache(size_t budget_bytes);

  ProbeCache(const ProbeCache&) = delete;
  ProbeCache& operator=(const ProbeCache&) = delete;

  /// \brief Returns the cached row set or nullptr; a hit refreshes LRU
  /// recency within its stripe. `version` is the relation's update epoch
  /// (see FullTextEngine::relation_version): an entry cached against an
  /// older version of the relation simply never matches again — stale
  /// results die by construction, no sweep required, while entries for
  /// untouched relations keep hitting.
  RowSet Lookup(storage::RelationId relation, storage::AttributeId attribute,
                uint64_t version, std::string_view sample);

  /// \brief Inserts (replacing any stale entry), then evicts the stripe's
  /// least-recently used entries until it is within its budget. Entries
  /// over a quarter of the stripe budget are rejected outright.
  void Insert(storage::RelationId relation, storage::AttributeId attribute,
              uint64_t version, std::string_view sample, RowSet rows);

  /// \brief The stripes' counters, summed.
  Stats stats() const;
  size_t budget_bytes() const { return budget_bytes_; }
  size_t stripe_count() const { return stripe_count_; }
  /// \brief The byte budget of one stripe (budget / stripe_count).
  size_t stripe_budget_bytes() const { return stripe_budget_; }

 private:
  // A lookup key that borrows its sample: hashing and equality are defined
  // over this view only, so Lookup finds an entry without building the
  // owning Key's std::string (a hit allocates nothing). The hash is
  // computed once per call: it picks the stripe and then the bucket.
  struct KeyView {
    size_t hash;
    storage::RelationId relation;
    storage::AttributeId attribute;
    uint64_t version;
    std::string_view sample;

    bool operator==(const KeyView& other) const = default;
  };
  struct Key {
    size_t hash;
    storage::RelationId relation;
    storage::AttributeId attribute;
    uint64_t version;
    std::string sample;

    operator KeyView() const {  // NOLINT(google-explicit-constructor)
      return KeyView{hash, relation, attribute, version, sample};
    }
  };
  struct Entry {
    RowSet rows;
    size_t bytes = 0;
    std::list<const Key*>::iterator lru_it;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyView& k) const { return k.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a == b;
    }
  };
  using EntryMap = std::unordered_map<Key, Entry, KeyHash, KeyEq>;

  // One exact LRU over stripe_budget_ bytes, under its own mutex.
  struct Stripe {
    mutable std::mutex mu;
    EntryMap entries;
    // Most-recent first; points at the map's stable key storage.
    std::list<const Key*> lru;
    size_t bytes_used = 0;
    uint64_t evictions = 0;
    uint64_t rejected_oversize = 0;

    // Drops `it`'s entry; caller holds mu.
    void Evict(EntryMap::iterator it);
    // Evicts the least-recently used entry; caller holds mu.
    void EvictOldest();
  };

  static size_t HashOf(storage::RelationId relation,
                       storage::AttributeId attribute, uint64_t version,
                       std::string_view sample);
  static size_t EntryBytes(const Key& key, const RowSet& rows);
  Stripe& StripeOf(size_t hash) { return stripes_[hash % stripe_count_]; }

  const size_t budget_bytes_;
  const size_t stripe_count_;
  const size_t stripe_budget_;
  const std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_PROBE_CACHE_H_
