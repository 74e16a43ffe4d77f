// Catalog: the multi-tenant registry of copy-on-write snapshots. Each named
// tenant owns one current Snapshot (database + full-text engine + schema
// graph at a monotonic epoch). Reads never block ingestion:
//
//   readers ----> Pin(tenant) ----> SnapshotPtr (refcounted, immutable)
//                                        ^
//   bulk load --> build next epoch  -----+-- Publish() swaps the pointer
//                 (indexes built         |   atomically under a short
//                  OUTSIDE the lock)     v   registry critical section
//                              old snapshot freed when the last pin drops
//
// Epochs come from one catalog-wide monotonic counter, so an epoch value
// is never reused — not across republishes, not across tenants, not even
// after a tenant is evicted and later recreated. Downstream fingerprints
// (the service result cache) rely on that uniqueness.
//
// Cold tenants are reclaimed by EvictIdle() after an idle TTL, mirroring
// the session TTL eviction in service::SessionManager: eviction drops the
// catalog's reference only — sessions still pinning the tenant's snapshot
// keep serving until they close.
#ifndef MWEAVER_CATALOG_CATALOG_H_
#define MWEAVER_CATALOG_CATALOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "catalog/snapshot.h"
#include "storage/database.h"
#include "text/fulltext_engine.h"
#include "text/match.h"

namespace mweaver::catalog {

struct CatalogOptions {
  /// Match policy for every published engine (one policy per catalog keeps
  /// cross-tenant result semantics uniform; per-tenant policies would also
  /// have to enter the result-cache fingerprint).
  text::MatchPolicy match_policy = text::MatchPolicy::Substring();
  /// Engine build/acceleration knobs applied to every publish.
  text::EngineOptions engine_options;
  /// Perfbench only; ROADMAP item 11 deletes. Accepted for any value and
  /// ignored: every tenant keeps one index set.
  uint32_t shard_count = 1;
  /// Tenants with no Pin/Publish for this long are reclaimed by
  /// EvictIdle().
  std::chrono::milliseconds idle_ttl{std::chrono::minutes(30)};
  /// Publish() fails with ResourceExhausted beyond this many live tenants.
  size_t max_tenants = 1024;
};

/// \brief A point-in-time row of ListTenants() for monitoring / metrics.
struct TenantInfo {
  std::string name;
  uint64_t epoch = 0;
  uint64_t minor_epoch = 0;  // streaming updates applied since last publish
  uint64_t publishes = 0;  // lifetime publish count of this registration
  uint64_t updates = 0;    // lifetime streaming-update count
  size_t rows = 0;
  size_t index_bytes = 0;
  /// Perfbench only; ROADMAP item 11 deletes. Always 1: every publish or
  /// update builds the tenant's one index set.
  uint64_t shards_rebuilt_last = 1;
  /// Pins outstanding beyond the catalog's own reference (sessions,
  /// in-flight requests, still-draining old epochs are NOT counted — this
  /// is the current snapshot's refcount only, an approximation for ops).
  long pins = 0;
};

/// \brief Thread-safe multi-tenant snapshot registry. All public methods
/// may be called concurrently; Pin() is a map lookup plus a shared_ptr
/// copy, Publish() does its expensive index build outside the lock.
class Catalog {
 public:
  explicit Catalog(CatalogOptions options = {});

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// \brief Builds the next epoch of `tenant` from `db` (creating the
  /// tenant on first publish) and atomically makes it current. The index
  /// build runs on the caller's thread without holding the registry lock,
  /// so concurrent Pin()s keep returning the previous epoch until the
  /// swap. Returns the newly current snapshot.
  ///
  /// Failpoint "catalog.tenant.publish" injects a pre-build failure (the
  /// tenant keeps serving its old epoch untouched).
  Result<SnapshotPtr> Publish(std::string_view tenant, storage::Database db);

  /// \brief Atomically replaces the tenant's current snapshot with a delta
  /// derived from `expected_base` — the streaming-update install step used
  /// by TenantWriter. The swap succeeds only if `expected_base` is still
  /// the serving snapshot: if a concurrent Publish (or another writer that
  /// slipped past the write lock) installed something newer, returns
  /// FailedPrecondition and `next` is discarded by the caller. NotFound if
  /// the tenant vanished (Drop / EvictIdle) while the delta was built.
  Status InstallDelta(std::string_view tenant,
                      const SnapshotPtr& expected_base, SnapshotPtr next);

  /// \brief The tenant's writer lock, serializing streaming update batches
  /// against each other (Publish does NOT take it — a racing publish wins
  /// via the InstallDelta precondition instead). Returned by shared_ptr so
  /// a writer holding it survives the tenant being dropped mid-batch.
  /// NotFound for unknown tenants.
  Result<std::shared_ptr<std::mutex>> WriterLock(std::string_view tenant);

  /// \brief Pins the tenant's current snapshot: the returned handle stays
  /// valid (and its contents immutable) regardless of later publishes or
  /// evictions. NotFound for unknown / evicted tenants. Refreshes the
  /// tenant's idle clock.
  Result<SnapshotPtr> Pin(std::string_view tenant) const;

  /// \brief The tenant's current epoch without pinning. NotFound when the
  /// tenant does not exist.
  Result<uint64_t> CurrentEpoch(std::string_view tenant) const;

  /// \brief Unregisters the tenant. Outstanding pins keep their snapshot;
  /// later Pin()s return NotFound until a new Publish().
  Status Drop(std::string_view tenant);

  /// \brief One tenant reclaimed by EvictIdle: its name and the epoch it
  /// was serving when evicted. Callers invalidating downstream state (the
  /// service result cache) must scope the invalidation to epochs <= this
  /// one — a republish of the same name that lands concurrently has a
  /// strictly greater epoch (catalog-wide monotonic counter) and must keep
  /// its entries.
  struct EvictedTenant {
    std::string name;
    uint64_t epoch = 0;
  };

  /// \brief Evicts every tenant idle (no Pin/Publish) longer than the TTL;
  /// returns who was reclaimed and at which epoch. The eviction policy
  /// mirrors SessionManager::EvictIdle: drop the registry reference, let
  /// refcounting drain stragglers.
  std::vector<EvictedTenant> EvictIdle();

  /// \brief Live tenant count.
  size_t size() const;

  /// \brief Stable-ordered (by name) snapshot of every live tenant.
  std::vector<TenantInfo> ListTenants() const;

  const CatalogOptions& options() const { return options_; }

 private:
  struct Tenant {
    SnapshotPtr current;      // guarded by Catalog::mu_
    uint64_t publishes = 0;   // guarded by Catalog::mu_
    uint64_t updates = 0;     // guarded by Catalog::mu_
    /// Serializes streaming writers to this tenant (held across the whole
    /// delta build, NOT just the install — see WriterLock()). shared_ptr so
    /// a writer keeps a valid mutex even if the tenant is dropped.
    std::shared_ptr<std::mutex> write_mu = std::make_shared<std::mutex>();
    /// steady_clock nanos of the last Pin/Publish (atomic so EvictIdle and
    /// the const Pin() path touch it without write-locking the registry).
    std::atomic<int64_t> last_used_ns{0};
  };

  static int64_t NowNs();

  const CatalogOptions options_;

  mutable std::mutex mu_;  // guards tenants_ and Tenant::current/publishes
  std::map<std::string, std::shared_ptr<Tenant>, std::less<>> tenants_;
  /// Catalog-wide epoch source; see file comment for why it is global.
  std::atomic<uint64_t> next_epoch_{1};
};

}  // namespace mweaver::catalog

#endif  // MWEAVER_CATALOG_CATALOG_H_
