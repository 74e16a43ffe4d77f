// SessionManager: owns many named core::Sessions, each pinned to one
// immutable catalog::Snapshot (database + FullTextEngine + SchemaGraph at
// a fixed epoch) for its whole lifetime. Sessions are identified by ids
// from a monotonically increasing space (never reused, so a stale client
// can never alias a newer user's session), serialized individually by a
// per-session mutex, and evicted after an idle TTL.
//
// The pin is the multi-tenant contract: a session created against epoch N
// of its tenant keeps searching epoch N byte-for-byte even while bulk
// loads publish N+1, N+2, ... — the snapshot only dies when the last
// session (or in-flight request) holding it drops its SnapshotPtr.
#ifndef MWEAVER_SERVICE_SESSION_MANAGER_H_
#define MWEAVER_SERVICE_SESSION_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/snapshot.h"
#include "common/result.h"
#include "core/session.h"
#include "service/metrics.h"

namespace mweaver::service {

using SessionId = uint64_t;

struct SessionManagerOptions {
  /// Sessions untouched for this long are reclaimed by EvictIdle().
  std::chrono::milliseconds idle_ttl{std::chrono::minutes(10)};
  /// Create() fails with ResourceExhausted beyond this many live sessions.
  size_t max_sessions = 4096;
};

/// \brief Concurrent registry of interactive mapping sessions.
///
/// Locking: the id map is split into lock stripes by id, and an atomic
/// live count enforces max_sessions; each session has its own mutex
/// serializing its Inputs (the interaction model is inherently sequential
/// per user, but different users run in parallel). A request resolves its
/// session once (Find) and then locks only that session's mutex, so a slow
/// search in one session never blocks lookups or other sessions.
class SessionManager {
 public:
  /// \brief A live session's registry entry. The pinned snapshot and the
  /// metrics record are readable without any lock; the session itself is
  /// reached only through WithSession.
  class Entry {
   public:
    Entry(catalog::SnapshotPtr snap, std::vector<std::string> column_names,
          core::SearchOptions search_options,
          std::shared_ptr<TenantMetrics> tenant_metrics)
        : snapshot(std::move(snap)),
          metrics(std::move(tenant_metrics)),
          session(&snapshot->engine(), &snapshot->graph(),
                  std::move(column_names), search_options) {}

    /// Declared before `session`: the session's engine/graph pointers
    /// point INTO the snapshot, so the pin must outlive (construct before,
    /// destruct after) the session.
    const catalog::SnapshotPtr snapshot;
    const std::shared_ptr<TenantMetrics> metrics;

   private:
    friend class SessionManager;

    std::mutex mu;          // serializes access to `session` and `closed`
    core::Session session;
    bool closed = false;    // set by Close/EvictIdle; guards the zombie
                            // window between map erase and entry release
    /// steady_clock nanos of the last WithSession completion (atomic so
    /// EvictIdle can read it without taking the session mutex).
    std::atomic<int64_t> last_used_ns{0};
  };
  using EntryPtr = std::shared_ptr<Entry>;

  explicit SessionManager(SessionManagerOptions options = {});

  /// \brief Creates a session for `column_names` over `snapshot`,
  /// returning its id. The session holds the snapshot pin until it is
  /// closed or evicted — later publishes to the same tenant never change
  /// what this session searches. `search_fn` (optional) overrides the
  /// first-row search — the service installs its caching wrapper here.
  /// `metrics` (optional) is the record the session's requests are
  /// counted in; its Entry carries it.
  Result<SessionId> Create(catalog::SnapshotPtr snapshot,
                           std::vector<std::string> column_names,
                           core::SearchOptions search_options = {},
                           core::Session::SearchFn search_fn = nullptr,
                           std::shared_ptr<TenantMetrics> metrics = nullptr);

  /// \brief Removes the session. In-flight WithSession calls holding it
  /// finish normally; later lookups return NotFound.
  Status Close(SessionId id);

  /// \brief The session's entry; nullptr for unknown/closed/evicted ids.
  /// The service resolves each request's session once, at admission, and
  /// hands the entry to WithSession.
  EntryPtr Find(SessionId id) const;

  /// \brief Runs `fn` with exclusive access to the session and refreshes
  /// its idle clock. Returns NotFound for unknown/closed/evicted ids.
  Status WithSession(SessionId id,
                     const std::function<Status(core::Session&)>& fn);

  /// \brief WithSession on an entry resolved earlier by Find(id): locks
  /// the session's own mutex without touching the registry. NotFound when
  /// `entry` is null or the session was closed or evicted since.
  Status WithSession(SessionId id, const EntryPtr& entry,
                     const std::function<Status(core::Session&)>& fn);

  /// \brief The snapshot the session is pinned to (tenant name and epoch
  /// ride along on it). NotFound for unknown/closed ids.
  Result<catalog::SnapshotPtr> SnapshotOf(SessionId id) const;

  /// \brief Evicts every session idle longer than the TTL; returns how
  /// many were reclaimed. Sessions currently executing a request are
  /// skipped (their idle clock refreshes on completion anyway).
  size_t EvictIdle();

  /// \brief Live session count.
  size_t size() const { return live_.load(std::memory_order_relaxed); }

  const SessionManagerOptions& options() const { return options_; }

 private:
  static constexpr size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;  // guards `sessions` only
    std::unordered_map<SessionId, EntryPtr> sessions;
  };

  static int64_t NowNs();
  Stripe& StripeOf(SessionId id) const { return stripes_[id % kStripes]; }

  const SessionManagerOptions options_;

  mutable std::array<Stripe, kStripes> stripes_;
  /// Sessions created and not yet closed or evicted; Create reserves a
  /// slot here before publishing the entry, so max_sessions holds.
  std::atomic<size_t> live_{0};
  std::atomic<SessionId> next_id_{1};
};

}  // namespace mweaver::service

#endif  // MWEAVER_SERVICE_SESSION_MANAGER_H_
