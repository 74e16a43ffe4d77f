#include "text/probe_cache.h"

#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/logging.h"

namespace mweaver::text {

const RowSet& EmptyRowSet() {
  static const RowSet empty =
      std::make_shared<const std::vector<storage::RowId>>();
  return empty;
}

size_t ProbeCache::KeyHash::operator()(const KeyView& k) const {
  size_t seed = std::hash<std::string_view>{}(k.sample);
  HashCombine(&seed, k.relation);
  HashCombine(&seed, k.attribute);
  HashCombine(&seed, k.version);
  return seed;
}

size_t ProbeCache::EntryBytes(const Key& key, const RowSet& rows) {
  // Key string + row payload + map/list node overhead (approximate).
  constexpr size_t kNodeOverhead = 96;
  return key.sample.size() + rows->size() * sizeof(storage::RowId) +
         kNodeOverhead;
}

RowSet ProbeCache::Lookup(storage::RelationId relation,
                          storage::AttributeId attribute, uint64_t version,
                          std::string_view sample) {
  const KeyView key{relation, attribute, version, sample};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // refresh recency
  return it->second.rows;
}

void ProbeCache::Insert(storage::RelationId relation,
                        storage::AttributeId attribute, uint64_t version,
                        std::string_view sample, RowSet rows) {
  MW_CHECK(rows != nullptr);
  // Chaos site: a dropped memo insert. The cache is purely an accelerator,
  // so losing an insert must only cost recomputation, never correctness.
  if (MW_FAILPOINT_TRIGGERED("text.probe_cache.insert")) return;
  Key key{relation, attribute, version, std::string(sample)};
  const size_t bytes = EntryBytes(key, rows);
  std::lock_guard<std::mutex> lock(mu_);
  // Chaos site: a forced full eviction (cache-pressure overflow) right
  // before this insert lands — exercises cold-probe paths under load.
  if (MW_FAILPOINT_TRIGGERED("text.probe_cache.evict")) {
    while (!lru_.empty()) {
      auto victim = entries_.find(*lru_.back());
      MW_CHECK(victim != entries_.end());
      EvictLocked(victim);
      ++evictions_;
    }
  }
  if (budget_bytes_ == 0 || bytes > budget_bytes_ / 4) {
    ++rejected_oversize_;
    return;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) EvictLocked(it);
  auto [slot, inserted] = entries_.emplace(std::move(key), Entry{});
  MW_CHECK(inserted);
  lru_.push_front(&slot->first);
  slot->second.rows = std::move(rows);
  slot->second.bytes = bytes;
  slot->second.lru_it = lru_.begin();
  bytes_used_ += bytes;
  while (bytes_used_ > budget_bytes_ && lru_.size() > 1) {
    auto victim = entries_.find(*lru_.back());
    MW_CHECK(victim != entries_.end());
    EvictLocked(victim);
    ++evictions_;
  }
}

void ProbeCache::EvictLocked(EntryMap::iterator it) {
  bytes_used_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

ProbeCache::Stats ProbeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.entries = entries_.size();
  s.bytes_used = bytes_used_;
  s.evictions = evictions_;
  s.rejected_oversize = rejected_oversize_;
  return s;
}

}  // namespace mweaver::text
