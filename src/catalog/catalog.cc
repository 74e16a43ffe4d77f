#include "catalog/catalog.h"

#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::catalog {

Catalog::Catalog(CatalogOptions options) : options_(std::move(options)) {}

int64_t Catalog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<SnapshotPtr> Catalog::Publish(std::string_view tenant,
                                     storage::Database db) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  // Chaos site: ingestion flaking before the build starts (source dump
  // unreachable, quota trip). The tenant keeps serving its old epoch; the
  // default injected code is Unavailable, the retryable class.
  MW_FAILPOINT_RETURN_NOT_OK("catalog.tenant.publish");

  // Claim the epoch before the build: concurrent publishers to one tenant
  // build in parallel and install in claim order (a slower build holding
  // an older epoch must not clobber a newer one — see the install check).
  const uint64_t epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);

  // The expensive step — index construction over the new instance — runs
  // with NO catalog lock held: readers keep pinning the previous epoch at
  // full speed for the whole build.
  auto owned_db = std::make_unique<storage::Database>(std::move(db));
  auto engine = std::make_unique<text::FullTextEngine>(
      owned_db.get(), options_.match_policy, options_.engine_options);
  auto graph = std::make_unique<graph::SchemaGraph>(owned_db.get());
  auto snapshot = std::make_shared<const Snapshot>(
      std::string(tenant), epoch, /*minor_epoch=*/0, std::move(owned_db),
      std::move(engine), std::move(graph));

  // Declared before the lock so it is destroyed after the lock is
  // released: when no reader pins the superseded snapshot, dropping it
  // frees a whole index bundle, and every tenant's Pin waits on mu_.
  SnapshotPtr superseded;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    if (tenants_.size() >= options_.max_tenants) {
      return Status::ResourceExhausted(
          StrFormat("tenant limit reached (%zu live tenants)",
                    tenants_.size()));
    }
    it = tenants_.emplace(std::string(tenant), std::make_shared<Tenant>())
             .first;
  }
  Tenant& entry = *it->second;
  if (entry.current != nullptr && entry.current->epoch() > epoch) {
    // A concurrent publish claimed a later epoch and finished first; this
    // build is already stale. The built snapshot is discarded here (its
    // only reference), never exposed.
    return Status::FailedPrecondition(
        StrFormat("publish of tenant '%.*s' superseded by epoch %llu",
                  static_cast<int>(tenant.size()), tenant.data(),
                  static_cast<unsigned long long>(entry.current->epoch())));
  }
  // The atomic swap: one pointer exchange.
  superseded = std::exchange(entry.current, snapshot);
  entry.publishes += 1;
  entry.last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return snapshot;
}

Status Catalog::InstallDelta(std::string_view tenant,
                             const SnapshotPtr& expected_base,
                             SnapshotPtr next) {
  if (next == nullptr) {
    return Status::InvalidArgument("delta snapshot must not be null");
  }
  // Dropped after the lock is released, as in Publish.
  SnapshotPtr superseded;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second->current == nullptr) {
    return Status::NotFound(StrFormat("no tenant '%.*s'",
                                      static_cast<int>(tenant.size()),
                                      tenant.data()));
  }
  Tenant& entry = *it->second;
  if (entry.current != expected_base) {
    // A full Publish (or a writer that bypassed the lock) swapped the
    // serving snapshot while this delta was being built. The delta was
    // derived from a superseded base, so it must not be installed.
    return Status::FailedPrecondition(
        StrFormat("update to tenant '%.*s' superseded: base epoch %llu.%llu "
                  "is no longer current",
                  static_cast<int>(tenant.size()), tenant.data(),
                  static_cast<unsigned long long>(expected_base->epoch()),
                  static_cast<unsigned long long>(
                      expected_base->minor_epoch())));
  }
  superseded = std::exchange(entry.current, std::move(next));
  entry.updates += 1;
  entry.last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return Status::OK();
}

Result<std::shared_ptr<std::mutex>> Catalog::WriterLock(
    std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound(StrFormat("no tenant '%.*s'",
                                      static_cast<int>(tenant.size()),
                                      tenant.data()));
  }
  return it->second->write_mu;
}

Result<SnapshotPtr> Catalog::Pin(std::string_view tenant) const {
  SnapshotPtr pinned;
  std::shared_ptr<Tenant> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
      entry = it->second;
      pinned = entry->current;
    }
  }
  if (pinned == nullptr) {
    return Status::NotFound(StrFormat("no tenant '%.*s'",
                                      static_cast<int>(tenant.size()),
                                      tenant.data()));
  }
  entry->last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return pinned;
}

Result<uint64_t> Catalog::CurrentEpoch(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second->current == nullptr) {
    return Status::NotFound(StrFormat("no tenant '%.*s'",
                                      static_cast<int>(tenant.size()),
                                      tenant.data()));
  }
  return it->second->current->epoch();
}

Status Catalog::Drop(std::string_view tenant) {
  SnapshotPtr released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      return Status::NotFound(StrFormat("no tenant '%.*s'",
                                        static_cast<int>(tenant.size()),
                                        tenant.data()));
    }
    released = std::move(it->second->current);
    tenants_.erase(it);
  }
  // `released` (possibly the last reference to a large index bundle)
  // destructs here, outside the registry lock.
  return Status::OK();
}

std::vector<Catalog::EvictedTenant> Catalog::EvictIdle() {
  const int64_t cutoff_ns =
      NowNs() - std::chrono::duration_cast<std::chrono::nanoseconds>(
                    options_.idle_ttl)
                    .count();
  std::vector<EvictedTenant> evicted;
  std::vector<SnapshotPtr> released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = tenants_.begin(); it != tenants_.end();) {
      Tenant& entry = *it->second;
      if (entry.last_used_ns.load(std::memory_order_relaxed) > cutoff_ns) {
        ++it;
        continue;
      }
      evicted.push_back(EvictedTenant{
          it->first,
          entry.current != nullptr ? entry.current->epoch() : 0});
      released.push_back(std::move(entry.current));
      it = tenants_.erase(it);
    }
  }
  // Cold snapshots destruct here, outside the lock. Sessions still holding
  // pins are unaffected: their SnapshotPtr keeps the bundle alive.
  return evicted;
}

size_t Catalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

std::vector<TenantInfo> Catalog::ListTenants() const {
  std::vector<TenantInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(tenants_.size());
  for (const auto& [name, entry] : tenants_) {
    TenantInfo info;
    info.name = name;
    info.publishes = entry->publishes;
    info.updates = entry->updates;
    if (entry->current != nullptr) {
      info.epoch = entry->current->epoch();
      info.minor_epoch = entry->current->minor_epoch();
      info.rows = entry->current->db().TotalRows();
      info.index_bytes = entry->current->index_bytes();
      // One reference is the catalog's own; anything beyond it is a pin.
      info.pins = entry->current.use_count() - 1;
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace mweaver::catalog
