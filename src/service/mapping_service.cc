#include "service/mapping_service.h"

#include <algorithm>
#include <future>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/sample_search.h"

namespace mweaver::service {

namespace {

// Runs `submit` with a completion that fulfils a promise, then waits on it.
// A rejected admission never completes: it is reported as kOverloaded
// (ResourceExhausted) or kFailed (shutting down).
template <typename Submit>
RequestResult SubmitAndWait(Submit submit) {
  std::promise<RequestResult> promise;
  std::future<RequestResult> future = promise.get_future();
  Status admitted = submit([&](RequestResult result) {
    promise.set_value(std::move(result));
  });
  if (!admitted.ok()) {
    RequestResult rejected;
    rejected.status = std::move(admitted);
    rejected.outcome = rejected.status.IsResourceExhausted()
                           ? RequestOutcome::kOverloaded
                           : RequestOutcome::kFailed;
    return rejected;
  }
  return future.get();
}

}  // namespace

MappingService::MappingService(catalog::Catalog* catalog,
                               ServiceOptions options)
    : catalog_(catalog),
      options_(options),
      sessions_(options.sessions),
      writer_(catalog),
      cache_(options.cache_capacity) {
  MW_CHECK(catalog != nullptr);
  MW_CHECK(options.search_parallelism <= 1) << "a search runs on one thread";
  for (size_t i = 0; i < options.num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

MappingService::~MappingService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  // A worker that sees `shutdown_` leaves without popping: once all have
  // joined, what is still queued is exactly the leftovers.
  for (std::thread& worker : workers_) worker.join();
  std::deque<QueuedRequest> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
    for (QueuedRequest& queued : leftovers) --queued.metrics->queued_requests;
  }
  for (QueuedRequest& queued : leftovers) {
    RequestResult result;
    result.status = Status::Internal("service shutting down");
    result.outcome = RequestOutcome::kFailed;
    queued.metrics->RecordRequest(result.outcome, 0.0);
    if (queued.done) queued.done(std::move(result));
  }
}

size_t MappingService::TenantQueueCap() const {
  const double share = std::clamp(options_.max_tenant_queue_share, 0.0, 1.0);
  const auto cap =
      static_cast<size_t>(share * static_cast<double>(options_.max_queue_depth));
  return std::max<size_t>(1, cap);
}

core::Session::SearchFn MappingService::MakeCachingSearchFn(
    catalog::SnapshotPtr snapshot, std::shared_ptr<TenantMetrics> metrics) {
  // The wrapper runs inside Session::RunSearch, i.e. under the session's
  // mutex on a worker thread. The cache has its own lock, so concurrent
  // sessions share results safely — across sessions of the SAME tenant
  // and epoch only, because both are baked into the key.
  //
  // The lambda holds its own snapshot pin: even if the session entry were
  // torn down mid-call, the engine/graph it searches stay alive.
  // Resolve the cache-key prefix before the capture list: the `snapshot`
  // init-capture moves the parameter, so touching it in a later
  // initializer would read a moved-from pointer. Freezing the prefix
  // here — at pin time — makes it impossible for a request admitted under
  // this serving state to be keyed with a later epoch/minor: the snapshot
  // is immutable and the prefix is literally a captured constant.
  std::string key_prefix = ResultCache::MakeKeyPrefix(
      snapshot->tenant(), snapshot->epoch(), snapshot->minor_epoch());
  return [this, snapshot = std::move(snapshot), metrics = std::move(metrics),
          key_prefix = std::move(key_prefix)](
             const std::vector<std::string>& first_row,
             const core::SearchOptions& opts, core::ExecutionContext& ctx)
             -> Result<core::SearchResult> {
    const std::string key =
        ResultCache::MakeKeyWithPrefix(key_prefix, first_row, opts);
    if (std::optional<core::SearchResult> hit = cache_.Lookup(key)) {
      metrics->RecordCacheLookup(/*hit=*/true);
      hit->stats.from_cache = true;
      return std::move(*hit);
    }
    metrics->RecordCacheLookup(/*hit=*/false);
    // Chaos site: the backend flaking at search dispatch. Injects an
    // Unavailable status, which Process() absorbs with one retry.
    MW_FAILPOINT_RETURN_NOT_OK("service.search.transient");
    MW_ASSIGN_OR_RETURN(core::SearchResult result,
                        core::SampleSearch(snapshot->engine(),
                                           snapshot->graph(), first_row,
                                           opts, ctx));
    metrics->RecordSearchTrace(result.stats.trace);
    cache_.Insert(key, result);  // rejects truncated results itself
    return result;
  };
}

Result<SessionId> MappingService::CreateSession(
    std::string_view tenant, std::vector<std::string> column_names,
    core::SearchOptions search_options) {
  // Pin the tenant's current snapshot NOW: everything this session ever
  // searches — and every cache key it produces — is this epoch, no matter
  // how many publishes land while the session is open.
  MW_ASSIGN_OR_RETURN(catalog::SnapshotPtr snapshot, catalog_->Pin(tenant));
  std::shared_ptr<TenantMetrics> metrics = metrics_.ForTenant(tenant);
  auto search_fn = MakeCachingSearchFn(snapshot, metrics);
  MW_ASSIGN_OR_RETURN(
      SessionId id,
      sessions_.Create(std::move(snapshot), std::move(column_names),
                       search_options, std::move(search_fn), metrics));
  metrics->RecordSessionCreated();
  return id;
}

Status MappingService::CloseSession(SessionId id) {
  return sessions_.Close(id);
}

Status MappingService::Enqueue(InputRequest request,
                               std::function<void(RequestResult)> done) {
  QueuedRequest queued;
  queued.admitted = core::SearchClock::now();
  // Resolve the session before taking the queue lock: the one registry
  // lookup of this request. Its entry carries the tenant record, and the
  // worker runs the request on it directly. Unknown session: count it as
  // unattributed and let the worker report NotFound — admission order
  // must not depend on registry races.
  queued.session = sessions_.Find(request.session_id);
  if (queued.session != nullptr) queued.metrics = queued.session->metrics;
  if (queued.metrics == nullptr) queued.metrics = metrics_.unattributed();
  queued.request = std::move(request);
  queued.done = std::move(done);
  return Admit(std::move(queued));
}

Status MappingService::EnqueueUpdate(UpdateRequest request,
                                     std::function<void(RequestResult)> done) {
  QueuedRequest queued;
  queued.admitted = core::SearchClock::now();
  // Only published tenants get a record: an update naming an unknown
  // tenant fails NotFound in the worker and counts as unattributed, so
  // made-up names cannot grow the registry.
  queued.metrics = catalog_->CurrentEpoch(request.tenant).ok()
                       ? metrics_.ForTenant(request.tenant)
                       : metrics_.unattributed();
  queued.request = std::move(request);
  queued.done = std::move(done);
  return Admit(std::move(queued));
}

RequestResult MappingService::ApplyUpdate(UpdateRequest request) {
  return SubmitAndWait([&](std::function<void(RequestResult)> done) {
    return EnqueueUpdate(std::move(request), std::move(done));
  });
}

Status MappingService::Admit(QueuedRequest queued) {
  std::chrono::milliseconds budget = std::visit(
      [](const auto& request) { return request.deadline; }, queued.request);
  if (budget.count() == 0) budget = options_.default_deadline;
  queued.deadline = budget.count() != 0
                        ? queued.admitted + budget
                        : core::SearchClock::time_point::max();
  const size_t tenant_cap = TenantQueueCap();
  TenantMetrics& metrics = *queued.metrics;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    // Chaos site: forced admission rejection — the client sees the same
    // kOverloaded backpressure a genuinely full queue produces.
    if (MW_FAILPOINT_TRIGGERED("service.queue.admit") ||
        queue_.size() >= options_.max_queue_depth) {
      metrics.RecordRequest(RequestOutcome::kOverloaded, 0.0);
      return Status::ResourceExhausted(
          "request queue full; back off and retry");
    }
    // Unattributed requests count toward the global bound only.
    const bool tenant_share = !metrics.tenant().empty();
    if (tenant_share && metrics.queued_requests >= tenant_cap) {
      // The queue has room but this tenant already owns its share of it:
      // reject so other tenants keep getting admitted. Recorded both as a
      // plain overload (the client-visible truth) and as a share_rejection
      // (the operator-visible cause).
      metrics.RecordShareRejection();
      metrics.RecordRequest(RequestOutcome::kOverloaded, 0.0);
      return Status::ResourceExhausted(
          "tenant queue share exhausted; back off and retry");
    }
    ++metrics.queued_requests;
    if (tenant_share) metrics.RecordQueueDepth(metrics.queued_requests);
    queue_.push_back(std::move(queued));
    metrics_.RecordQueueDepth(queue_.size());
  }
  queue_cv_.notify_one();
  return Status::OK();
}

RequestResult MappingService::Call(InputRequest request) {
  return SubmitAndWait([&](std::function<void(RequestResult)> done) {
    return Enqueue(std::move(request), std::move(done));
  });
}

size_t MappingService::EvictIdleTenants() {
  // The catalog reports exactly who it evicted and at which epoch, and the
  // cache purge is bounded by that epoch: a republish of the same tenant
  // name racing this sweep owns a strictly newer epoch (catalog-wide
  // monotonic counter), so its fresh entries survive. The old
  // diff-the-listing approach purged by name alone and would eat them.
  const std::vector<catalog::Catalog::EvictedTenant> evicted =
      catalog_->EvictIdle();
  for (const catalog::Catalog::EvictedTenant& tenant : evicted) {
    cache_.EvictTenantEntries(tenant.name, tenant.epoch);
  }
  return evicted.size();
}

void MappingService::WorkerLoop() {
  while (true) {
    QueuedRequest queued;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
      // Leave without popping: the destructor fails what is still queued.
      if (shutdown_) return;
      queued = std::move(queue_.front());
      queue_.pop_front();
      --queued.metrics->queued_requests;
    }
    // Chaos site: a worker stalling between dequeue and dispatch (scheduler
    // hiccup, page fault storm) — eats into request deadlines.
    (void)MW_FAILPOINT_FIRE("service.worker.dispatch");
    RequestResult result = std::visit(
        [&](const auto& request) { return Process(queued, request); },
        queued.request);
    // Release the session entry before the callback: a client that closes
    // the session from `done` frees the session (its arena, its snapshot
    // pin) at the close, before it opens the next one.
    queued.session.reset();
    queued.metrics->RecordRequest(result.outcome, result.latency_ms);
    if (queued.done) queued.done(std::move(result));
  }
}

RequestResult MappingService::Process(const QueuedRequest& queued,
                                      const UpdateRequest& request) {
  RequestResult result;
  TenantMetrics& metrics = *queued.metrics;
  const auto finish = [&](RequestOutcome outcome, Status status) {
    result.outcome = outcome;
    result.status = std::move(status);
    result.latency_ms =
        std::chrono::duration<double, std::milli>(core::SearchClock::now() -
                                                  queued.admitted)
            .count();
    return result;
  };

  // An update that waited out its budget in the queue is NOT applied: the
  // status says so explicitly (unlike a search, where "truncated" means a
  // partial answer, an un-applied batch must be unambiguous — and it is
  // safe to resubmit, since nothing started).
  if (core::SearchClock::now() >= queued.deadline) {
    result.truncated = true;
    metrics.RecordUpdate(/*ok=*/false, 0, 0);
    return finish(RequestOutcome::kTruncated,
                  Status::Unavailable(
                      "update deadline expired in queue; batch not applied"));
  }

  Result<catalog::UpdateResult> applied =
      writer_.Apply(request.tenant, request.batch);
  // Same graceful degradation as searches: one retry on a transient
  // (Unavailable) failure. Apply is atomic — a failed attempt left no
  // trace — so the replay is safe.
  if (!applied.ok() && applied.status().IsUnavailable() &&
      core::SearchClock::now() < queued.deadline) {
    metrics.RecordUpdateRetry();
    applied = writer_.Apply(request.tenant, request.batch);
    if (applied.ok()) result.degraded = true;
  }
  if (!applied.ok()) {
    metrics.RecordUpdate(/*ok=*/false, 0, 0);
    return finish(RequestOutcome::kFailed, applied.status());
  }
  const catalog::UpdateResult& update = applied.ValueOrDie();
  result.update_minor_epoch = update.snapshot->minor_epoch();
  result.inserted_rows = update.inserted_rows;
  metrics.RecordUpdate(/*ok=*/true, update.rows_inserted,
                       update.rows_deleted);
  return finish(result.degraded ? RequestOutcome::kDegraded
                                : RequestOutcome::kOk,
                Status::OK());
}

RequestResult MappingService::Process(const QueuedRequest& queued,
                                      const InputRequest& request) {
  RequestResult result;
  const auto finish = [&](RequestOutcome outcome, Status status) {
    result.outcome = outcome;
    result.status = std::move(status);
    result.latency_ms =
        std::chrono::duration<double, std::milli>(core::SearchClock::now() -
                                                  queued.admitted)
            .count();
    return result;
  };

  // A request that waited out its whole budget in the queue is answered
  // immediately — running the search would only waste the worker on an
  // answer the client has given up on.
  if (core::SearchClock::now() >= queued.deadline) {
    result.truncated = true;
    return finish(RequestOutcome::kTruncated, Status::OK());
  }

  auto attempt = [&]() -> Status {
    Status status = sessions_.WithSession(
        request.session_id, queued.session,
        [&](core::Session& session) {
          const bool was_awaiting =
              session.state() == core::SessionState::kAwaitingFirstRow;
          // Arm the per-request deadline on the session's execution context
          // (options stay immutable — the cache keys on their fingerprint).
          session.context().set_deadline(queued.deadline);
          Status input =
              session.Input(request.row, request.col, request.value);
          session.context().clear_deadline();
          result.state = session.state();
          result.num_candidates = session.candidates().size();
          // `truncated` describes THIS request: only the input that fired
          // the first-row search can be cut short by the deadline (stats
          // persist on the session afterwards, so don't re-report them for
          // later pruning inputs).
          const bool search_ran_now =
              was_awaiting &&
              session.state() != core::SessionState::kAwaitingFirstRow;
          result.truncated =
              search_ran_now && session.search_stats().truncated;
          result.cache_hit =
              search_ran_now && session.search_stats().from_cache;
          // A non-empty below-first-row input on a searched session ran a
          // pruning pass: fold its trace (kPrune latency and probe
          // counters) into the metrics. Empty values clear cells
          // without pruning — the context still holds a stale trace then.
          if (input.ok() && !was_awaiting && !request.value.empty()) {
            queued.metrics->RecordPruneTrace(session.context().trace());
          }
          return input;
        });
    return status;
  };

  Status status = attempt();
  // Graceful degradation: a transient (Unavailable) failure gets exactly
  // one retry. A failed search leaves the session in kAwaitingFirstRow
  // with its grid intact, so replaying the same Input is idempotent; a
  // second Unavailable is reported as the failure it is.
  if (status.IsUnavailable() &&
      core::SearchClock::now() < queued.deadline) {
    queued.metrics->RecordSearchRetry();
    result.truncated = false;
    status = attempt();
    if (status.ok()) result.degraded = true;
  }
  if (!status.ok()) {
    return finish(RequestOutcome::kFailed, std::move(status));
  }
  // Truncation wins over degradation: the client must know the result is
  // partial before caring how it got there.
  return finish(result.truncated  ? RequestOutcome::kTruncated
                : result.degraded ? RequestOutcome::kDegraded
                                  : RequestOutcome::kOk,
                Status::OK());
}

}  // namespace mweaver::service
