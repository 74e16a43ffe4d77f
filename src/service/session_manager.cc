#include "service/session_manager.h"

#include "common/string_util.h"

namespace mweaver::service {

namespace {
Status NoSession(SessionId id) {
  return Status::NotFound(
      StrFormat("no session %llu", static_cast<unsigned long long>(id)));
}
}  // namespace

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

  // Reserve a live slot before publishing the entry: the count never
  // exceeds max_sessions, even while creations race.
  size_t live = live_.load(std::memory_order_relaxed);
  do {
    if (live >= options_.max_sessions) {
      return Status::ResourceExhausted(
          StrFormat("session limit reached (%zu live sessions)", live));
    }
  } while (!live_.compare_exchange_weak(live, live + 1,
                                        std::memory_order_relaxed));
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = StripeOf(id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.sessions.emplace(id, std::move(entry));
  return id;
}

Status SessionManager::Close(SessionId id) {
  EntryPtr entry;
  {
    Stripe& stripe = StripeOf(id);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.sessions.find(id);
    if (it == stripe.sessions.end()) return NoSession(id);
    entry = std::move(it->second);
    stripe.sessions.erase(it);
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
  // Mark closed under the entry mutex so a request racing with the close
  // (it resolved the entry before the erase) observes NotFound instead of
  // operating on a zombie session.
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->closed = true;
  return Status::OK();
}

SessionManager::EntryPtr SessionManager::Find(SessionId id) const {
  const Stripe& stripe = StripeOf(id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.sessions.find(id);
  return it == stripe.sessions.end() ? nullptr : it->second;
}

Status SessionManager::WithSession(
    SessionId id, const std::function<Status(core::Session&)>& fn) {
  return WithSession(id, Find(id), fn);
}

Status SessionManager::WithSession(
    SessionId id, const EntryPtr& entry,
    const std::function<Status(core::Session&)>& fn) {
  if (entry == nullptr) return NoSession(id);
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
  EntryPtr entry = Find(id);
  if (entry == nullptr) return NoSession(id);
  // The pin is const for the entry's lifetime — no entry mutex needed.
  return entry->snapshot;
}

size_t SessionManager::EvictIdle() {
  const int64_t cutoff_ns =
      NowNs() - std::chrono::duration_cast<std::chrono::nanoseconds>(
                    options_.idle_ttl)
                    .count();
  std::vector<EntryPtr> evicted;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.sessions.begin(); it != stripe.sessions.end();) {
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
      it = stripe.sessions.erase(it);
    }
  }
  live_.fetch_sub(evicted.size(), std::memory_order_relaxed);
  // Entries (their Sessions AND their snapshot pins) destruct here,
  // outside the registry locks — evicting the last session on an old epoch
  // is what finally frees that epoch's index bundle.
  return evicted.size();
}

}  // namespace mweaver::service
