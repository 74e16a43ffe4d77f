#include "service/session_manager.h"

#include "common/string_util.h"

namespace mweaver::service {

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options) {}

int64_t SessionManager::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<SessionId> SessionManager::Create(
    catalog::SnapshotPtr snapshot, std::vector<std::string> column_names,
    core::SearchOptions search_options, core::Session::SearchFn search_fn,
    std::shared_ptr<TenantMetrics> metrics) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("a session needs a snapshot to pin");
  }
  if (column_names.empty()) {
    return Status::InvalidArgument("a session needs at least 1 column");
  }
  auto entry = std::make_shared<Entry>(std::move(snapshot),
                                       std::move(column_names),
                                       search_options, std::move(metrics));
  if (search_fn) entry->session.set_search_fn(std::move(search_fn));
  entry->last_used_ns.store(NowNs(), std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        StrFormat("session limit reached (%zu live sessions)",
                  sessions_.size()));
  }
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  sessions_.emplace(id, std::move(entry));
  return id;
}

Status SessionManager::Close(SessionId id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound(StrFormat("no session %llu",
                                        static_cast<unsigned long long>(id)));
    }
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  // Mark closed under the entry mutex so a request racing with the close
  // (it grabbed the shared_ptr before the erase) observes NotFound
  // instead of operating on a zombie session.
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->closed = true;
  return Status::OK();
}

Status SessionManager::WithSession(
    SessionId id, const std::function<Status(core::Session&)>& fn) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) entry = it->second;
  }
  if (entry == nullptr) {
    return Status::NotFound(StrFormat("no session %llu",
                                      static_cast<unsigned long long>(id)));
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound(StrFormat("session %llu was closed",
                                      static_cast<unsigned long long>(id)));
  }
  Status status = fn(entry->session);
  entry->last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return status;
}

Result<catalog::SnapshotPtr> SessionManager::SnapshotOf(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound(StrFormat("no session %llu",
                                      static_cast<unsigned long long>(id)));
  }
  // The pin is const for the entry's lifetime — no entry mutex needed.
  return it->second->snapshot;
}

std::shared_ptr<TenantMetrics> SessionManager::MetricsOf(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  // The record is const for the entry's lifetime — no entry mutex needed.
  return it == sessions_.end() ? nullptr : it->second->metrics;
}

size_t SessionManager::EvictIdle() {
  const int64_t cutoff_ns =
      NowNs() - std::chrono::duration_cast<std::chrono::nanoseconds>(
                    options_.idle_ttl)
                    .count();
  std::vector<std::shared_ptr<Entry>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Entry& entry = *it->second;
      if (entry.last_used_ns.load(std::memory_order_relaxed) > cutoff_ns) {
        ++it;
        continue;
      }
      // try_lock: a session mid-request is busy, not idle — skip it (its
      // idle clock refreshes when the request completes).
      if (!entry.mu.try_lock()) {
        ++it;
        continue;
      }
      entry.closed = true;
      entry.mu.unlock();
      evicted.push_back(std::move(it->second));
      it = sessions_.erase(it);
    }
  }
  // Entries (their Sessions AND their snapshot pins) destruct here,
  // outside the registry lock — evicting the last session on an old epoch
  // is what finally frees that epoch's index bundle.
  return evicted.size();
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace mweaver::service
