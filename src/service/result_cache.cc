#include "service/result_cache.h"

#include <cstdlib>
#include <limits>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace mweaver::service {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

// Tripwire: whoever adds a field to SearchOptions must decide whether it
// affects the result set, update SearchOptions::Fingerprint() accordingly,
// and re-bless the size here. Guarded to 64-bit targets where the layout
// (int + 2 double + 3 size_t, 8-byte aligned) is stable.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(core::SearchOptions) == 48,
              "SearchOptions layout changed: audit Fingerprint() so the "
              "result cache keys on every result-affecting field, then "
              "update this assert");
#endif

namespace {
// `t=<len>:<name>;` — the length prefix makes the tenant segment
// self-delimiting, so a tenant named "a;e=7" cannot forge another
// tenant/epoch's key space.
std::string TenantPrefix(std::string_view tenant) {
  std::string prefix = StrFormat("t=%zu:", tenant.size());
  prefix.append(tenant.data(), tenant.size());
  prefix += ';';
  return prefix;
}
}  // namespace

std::string ResultCache::MakeKeyPrefix(std::string_view tenant,
                                       uint64_t epoch, uint64_t minor_epoch) {
  // Tenant + (epoch, minor epoch) scope the prefix to one serving state —
  // a publish or a streaming update.
  return TenantPrefix(tenant) +
         StrFormat("e=%llu.%llu;", static_cast<unsigned long long>(epoch),
                   static_cast<unsigned long long>(minor_epoch));
}

std::string ResultCache::MakeKeyWithPrefix(
    std::string_view prefix, const std::vector<std::string>& first_row,
    const core::SearchOptions& options) {
  // The options fingerprint covers everything else that can change the
  // result set (canonically defined next to the options themselves).
  std::string key(prefix);
  key += StrFormat("m=%zu;", first_row.size());
  key += options.Fingerprint();
  key += '|';
  for (const std::string& sample : first_row) {
    key += ToLower(sample);
    key += '\x1f';  // unit separator: never produced by user keystrokes
  }
  return key;
}

std::string ResultCache::MakeKey(std::string_view tenant, uint64_t epoch,
                                 uint64_t minor_epoch,
                                 const std::vector<std::string>& first_row,
                                 const core::SearchOptions& options) {
  return MakeKeyWithPrefix(MakeKeyPrefix(tenant, epoch, minor_epoch),
                           first_row, options);
}

size_t ResultCache::EvictTenantEntries(std::string_view tenant) {
  return EvictTenantEntries(tenant, std::numeric_limits<uint64_t>::max());
}

size_t ResultCache::EvictTenantEntries(std::string_view tenant,
                                       uint64_t max_epoch) {
  const std::string prefix = TenantPrefix(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      ++it;
      continue;
    }
    // The epoch segment follows the self-delimiting tenant prefix as
    // "e=<epoch>.<minor>;". Entries from a newer epoch — a republish that
    // raced the eviction sweep — are kept.
    const char* seg = it->first.c_str() + prefix.size();
    uint64_t entry_epoch = 0;
    if (seg[0] == 'e' && seg[1] == '=') {
      entry_epoch = std::strtoull(seg + 2, nullptr, 10);
    }
    if (entry_epoch > max_epoch) {
      ++it;
      continue;
    }
    index_.erase(it->first);
    it = lru_.erase(it);
    ++evicted;
  }
  return evicted;
}

std::optional<core::SearchResult> ResultCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ResultCache::Insert(const std::string& key, core::SearchResult result) {
  if (capacity_ == 0) return;
  if (result.stats.truncated) return;  // never replay partial results
  // Chaos site: a dropped result-cache insert; like the probe memo, losing
  // one only forces recomputation on the next identical request.
  if (MW_FAILPOINT_TRIGGERED("service.result_cache.insert")) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(result));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace mweaver::service
