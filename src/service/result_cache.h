// ResultCache: an LRU cache over first-row sample searches. Interactive
// traffic is heavily repetitive — many users map the same popular entities
// against the same source — so identical first rows across sessions can
// skip the TPW pipeline entirely.
//
// Cache key (see DESIGN.md "Service layer"): the tenant (length-prefixed,
// so a crafted tenant name can never splice into the rest of the key) and
// the snapshot EPOCH the session is pinned to, the target-column count, a
// fingerprint of every search option that affects the result set (PMNJ,
// ranking weights, tuple-path caps — NOT the deadline, which changes
// timing but never the converged output), and the
// NORMALIZED first-row samples (ASCII-lowercased; sound because every
// match mode compares case-insensitively — but NOT trimmed, since the
// engine matches samples verbatim and a stray space changes the result).
//
// Tenant + epoch are load-bearing: two tenants may host different
// databases under identical queries, and one tenant's republish changes
// its answers — the epoch (catalog-wide monotonic, never reused) makes
// every publish a new key space, so stale entries can never be served,
// only aged out by LRU. Truncated results are never inserted: a partial
// candidate list must not be replayed to a client with a looser deadline.
#ifndef MWEAVER_SERVICE_RESULT_CACHE_H_
#define MWEAVER_SERVICE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/sample_search.h"

namespace mweaver::service {

/// \brief Thread-safe LRU cache from normalized first rows to complete
/// SearchResults.
class ResultCache {
 public:
  /// \brief Keeps at most `capacity` entries (0 disables caching: every
  /// Lookup misses and Insert is a no-op).
  explicit ResultCache(size_t capacity);

  /// \brief Builds the canonical cache key for a first row searched on
  /// `tenant`'s snapshot at `epoch`.`minor_epoch` under `options`. The
  /// minor epoch extends the publish-epoch scoping to streaming updates:
  /// every installed update batch moves the tenant to a new key space, so
  /// results computed before the update can never be replayed after it
  /// (base snapshots are minor 0, matching keys minted before streaming
  /// existed).
  static std::string MakeKey(std::string_view tenant, uint64_t epoch,
                             uint64_t minor_epoch,
                             const std::vector<std::string>& first_row,
                             const core::SearchOptions& options);

  /// \brief The pin-time half of MakeKey: every key segment derived from
  /// the pinned snapshot (tenant, epoch, minor epoch).
  /// Sessions compute this once when they pin, so a request admitted under
  /// one serving state can never be keyed with a later one — the
  /// fingerprint is captured at pin time by construction.
  static std::string MakeKeyPrefix(std::string_view tenant, uint64_t epoch,
                                   uint64_t minor_epoch);

  /// \brief The per-request half of MakeKey: appends the target-column
  /// count, options fingerprint and normalized samples to a pin-time
  /// prefix. MakeKey == MakeKeyWithPrefix(MakeKeyPrefix(...), ...).
  static std::string MakeKeyWithPrefix(
      std::string_view prefix, const std::vector<std::string>& first_row,
      const core::SearchOptions& options);

  /// \brief Drops every entry belonging to `tenant` (any epoch); returns
  /// how many were removed. Used when a tenant is dropped —
  /// correctness never depends on this (epochs are never reused), it just
  /// stops dead entries from squatting LRU capacity.
  size_t EvictTenantEntries(std::string_view tenant);

  /// \brief Drops `tenant`'s entries whose epoch is <= `max_epoch` only.
  /// This is the eviction-safe variant: an eviction sweep that raced a
  /// republish of the same tenant name must not purge the fresh epoch's
  /// entries, and the republish's epoch is strictly greater than the
  /// evicted one (catalog-wide monotonic counter).
  size_t EvictTenantEntries(std::string_view tenant, uint64_t max_epoch);

  /// \brief Returns a copy of the cached result and refreshes its
  /// recency, or nullopt on a miss.
  std::optional<core::SearchResult> Lookup(const std::string& key);

  /// \brief Inserts (or refreshes) `result` under `key`, evicting the
  /// least-recently-used entry beyond capacity. Truncated results are
  /// rejected (see file comment).
  void Insert(const std::string& key, core::SearchResult result);

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, core::SearchResult>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace mweaver::service

#endif  // MWEAVER_SERVICE_RESULT_CACHE_H_
