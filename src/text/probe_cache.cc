#include "text/probe_cache.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/logging.h"

namespace mweaver::text {

const RowSet& EmptyRowSet() {
  static const RowSet empty =
      std::make_shared<const std::vector<storage::RowId>>();
  return empty;
}

ProbeCache::ProbeCache(size_t budget_bytes)
    : budget_bytes_(budget_bytes),
      stripe_count_(std::clamp<size_t>(budget_bytes / kStripeBytes, 1,
                                       kMaxStripes)),
      stripe_budget_(budget_bytes / stripe_count_),
      stripes_(std::make_unique<Stripe[]>(stripe_count_)) {}

size_t ProbeCache::HashOf(storage::RelationId relation,
                          storage::AttributeId attribute, uint64_t version,
                          std::string_view sample) {
  size_t seed = std::hash<std::string_view>{}(sample);
  HashCombine(&seed, relation);
  HashCombine(&seed, attribute);
  HashCombine(&seed, version);
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
  const KeyView key{HashOf(relation, attribute, version, sample), relation,
                    attribute, version, sample};
  Stripe& stripe = StripeOf(key.hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) return nullptr;
  stripe.lru.splice(stripe.lru.begin(), stripe.lru,
                    it->second.lru_it);  // refresh recency
  return it->second.rows;
}

void ProbeCache::Insert(storage::RelationId relation,
                        storage::AttributeId attribute, uint64_t version,
                        std::string_view sample, RowSet rows) {
  MW_CHECK(rows != nullptr);
  // Chaos site: a dropped memo insert. The cache is purely an accelerator,
  // so losing an insert must only cost recomputation, never correctness.
  if (MW_FAILPOINT_TRIGGERED("text.probe_cache.insert")) return;
  // Chaos site: a forced full eviction (cache-pressure overflow) right
  // before this insert lands — exercises cold-probe paths under load.
  // Every stripe is emptied, each under its own lock.
  if (MW_FAILPOINT_TRIGGERED("text.probe_cache.evict")) {
    for (size_t s = 0; s < stripe_count_; ++s) {
      Stripe& victim = stripes_[s];
      std::lock_guard<std::mutex> lock(victim.mu);
      while (!victim.lru.empty()) victim.EvictOldest();
    }
  }
  Key key{HashOf(relation, attribute, version, sample), relation, attribute,
          version, std::string(sample)};
  const size_t bytes = EntryBytes(key, rows);
  Stripe& stripe = StripeOf(key.hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe_budget_ == 0 || bytes > stripe_budget_ / 4) {
    ++stripe.rejected_oversize;
    return;
  }
  auto it = stripe.entries.find(key);
  if (it != stripe.entries.end()) stripe.Evict(it);
  auto [slot, inserted] = stripe.entries.emplace(std::move(key), Entry{});
  MW_CHECK(inserted);
  stripe.lru.push_front(&slot->first);
  slot->second.rows = std::move(rows);
  slot->second.bytes = bytes;
  slot->second.lru_it = stripe.lru.begin();
  stripe.bytes_used += bytes;
  while (stripe.bytes_used > stripe_budget_ && stripe.lru.size() > 1) {
    stripe.EvictOldest();
  }
}

void ProbeCache::Stripe::Evict(EntryMap::iterator it) {
  bytes_used -= it->second.bytes;
  lru.erase(it->second.lru_it);
  entries.erase(it);
}

void ProbeCache::Stripe::EvictOldest() {
  auto victim = entries.find(*lru.back());
  MW_CHECK(victim != entries.end());
  Evict(victim);
  ++evictions;
}

ProbeCache::Stats ProbeCache::stats() const {
  Stats s;
  for (size_t i = 0; i < stripe_count_; ++i) {
    const Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    s.entries += stripe.entries.size();
    s.bytes_used += stripe.bytes_used;
    s.evictions += stripe.evictions;
    s.rejected_oversize += stripe.rejected_oversize;
  }
  return s;
}

}  // namespace mweaver::text
