#include "catalog/catalog.h"

#include <algorithm>
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

  // The previous snapshot (if any) is the candidate source of reusable
  // shard index sets; pinning it here keeps it alive across the build.
  SnapshotPtr prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto prev_it = tenants_.find(tenant);
    if (prev_it != tenants_.end()) prev = prev_it->second->current;
  }

  // The expensive step — index construction over the new instance — runs
  // with NO catalog lock held: readers keep pinning the previous epoch at
  // full speed for the whole build. Fingerprint the new instance per shard
  // and rebuild only the shards whose content changed since the previous
  // snapshot; the rest are shared with it. Delta snapshots poison touched
  // shards' fingerprints, so streaming-updated shards always rebuild here.
  const uint32_t shard_count = std::max<uint32_t>(1, options_.shard_count);
  auto owned_db = std::make_unique<storage::Database>(std::move(db));
  std::vector<uint64_t> fingerprints =
      ComputeShardFingerprints(*owned_db, shard_count);
  std::vector<bool> reuse(shard_count, false);
  if (prev != nullptr && prev->shard_count() == shard_count) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      reuse[s] = prev->shard_fingerprints()[s] == fingerprints[s];
    }
  }
  size_t shards_rebuilt = 0;
  auto engine = text::FullTextEngine::Build(
      owned_db.get(), options_.match_policy, shard_count,
      options_.engine_options, prev != nullptr ? &prev->engine() : nullptr,
      reuse, &shards_rebuilt);
  auto graph = std::make_unique<graph::SchemaGraph>(owned_db.get());
  auto snapshot = std::make_shared<const Snapshot>(
      std::string(tenant), epoch, /*minor_epoch=*/0, std::move(owned_db),
      std::move(engine), std::move(graph), std::move(fingerprints));

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
  entry.current = snapshot;  // the atomic swap: one pointer assignment
  entry.publishes += 1;
  entry.shards_rebuilt_last = shards_rebuilt;
  entry.shards_rebuilt_total += shards_rebuilt;
  entry.last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return snapshot;
}

Status Catalog::InstallDelta(std::string_view tenant,
                             const SnapshotPtr& expected_base,
                             SnapshotPtr next, uint64_t shards_touched) {
  if (next == nullptr) {
    return Status::InvalidArgument("delta snapshot must not be null");
  }
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
  // Shard accounting: a delta "rebuilds" the shards the writer
  // delta-cloned; everything else was carried over.
  entry.current = std::move(next);
  entry.updates += 1;
  entry.shards_rebuilt_last = shards_touched;
  entry.shards_rebuilt_total += shards_touched;
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
    info.shards_rebuilt_last = entry->shards_rebuilt_last;
    info.shards_rebuilt_total = entry->shards_rebuilt_total;
    if (entry->current != nullptr) {
      info.epoch = entry->current->epoch();
      info.minor_epoch = entry->current->minor_epoch();
      info.rows = entry->current->db().TotalRows();
      info.index_bytes = entry->current->index_bytes();
      info.shards = entry->current->shard_count();
      // One reference is the catalog's own; anything beyond it is a pin.
      info.pins = entry->current.use_count() - 1;
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace mweaver::catalog
