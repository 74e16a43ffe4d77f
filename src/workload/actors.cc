#include "workload/actors.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace mweaver::workload {

namespace {

using Clock = Orchestrator::Clock;

/// Closed-loop overload backoff: long enough to let a worker drain one
/// request, short enough not to distort sub-millisecond latencies.
constexpr std::chrono::microseconds kOverloadBackoff{200};

// Primary keys for inserted entity rows: process-wide, never reused, and far
// above the ids the synthetic sources assign.
std::atomic<int64_t> next_insert_key{int64_t{1} << 40};

// The row an updater inserts: a copy of `template_row` that the writer
// accepts (no live row holds its primary key) and whose foreign keys point
// at rows no updater inserted, so deleting an updater's rows never orphans
// another. An entity copy gets a fresh value in a key column that is not a
// foreign key. A link copy, every key column a foreign key, is re-linked:
// its last key column takes the value another live link row holds there.
// Nullopt when no unused link was found.
std::optional<storage::Row> InsertableCopy(const storage::Database& db,
                                           storage::RelationId rel_id,
                                           storage::RowId template_row,
                                           Rng* rng) {
  const storage::Relation& rel = db.relation(rel_id);
  const std::vector<storage::AttributeId>& pk = rel.schema().primary_key();
  storage::Row row = rel.row(template_row);
  if (pk.empty()) return row;
  const auto is_foreign_key = [&](storage::AttributeId attr) {
    for (const storage::ForeignKey& fk : db.foreign_keys()) {
      if (fk.from_relation == rel_id && fk.from_attribute == attr) return true;
    }
    return false;
  };
  for (const storage::AttributeId attr : pk) {
    if (!is_foreign_key(attr) &&
        rel.schema().attribute(attr).type == storage::ValueType::kInt64) {
      row[static_cast<size_t>(attr)] =
          storage::Value(next_insert_key.fetch_add(1));
      return row;
    }
  }
  const auto relinked = static_cast<size_t>(pk.back());
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto donor = static_cast<storage::RowId>(rng->Index(rel.num_rows()));
    if (rel.is_deleted(donor)) continue;
    row[relinked] = rel.row(donor)[relinked];
    bool taken = false;
    for (storage::RowId r = 0;
         !taken && r < static_cast<storage::RowId>(rel.num_rows()); ++r) {
      if (rel.is_deleted(r)) continue;
      taken = std::all_of(pk.begin(), pk.end(), [&](storage::AttributeId a) {
        return rel.at(r, a) == row[static_cast<size_t>(a)];
      });
    }
    if (!taken) return row;
  }
  return std::nullopt;
}

// An updater's insert: a copy (see InsertableCopy) of a random live row of a
// random relation. A small link table can run out of unused links for a
// template, so a miss moves on to another relation.
std::optional<catalog::RowInsert> PickInsert(const storage::Database& db,
                                             Rng* rng) {
  for (size_t attempt = 0; attempt < db.num_relations(); ++attempt) {
    const auto rel_id =
        static_cast<storage::RelationId>(rng->Index(db.num_relations()));
    const storage::Relation& rel = db.relation(rel_id);
    if (rel.num_live_rows() == 0) continue;
    for (int pick = 0; pick < 32; ++pick) {
      const auto r = static_cast<storage::RowId>(rng->Index(rel.num_rows()));
      if (rel.is_deleted(r)) continue;
      std::optional<storage::Row> row = InsertableCopy(db, rel_id, r, rng);
      if (!row.has_value()) break;
      return catalog::RowInsert{rel.name(), *std::move(row)};
    }
  }
  return std::nullopt;
}

double LagMs(Clock::time_point intended, Clock::time_point actual) {
  return std::max(
      0.0,
      std::chrono::duration<double, std::milli>(actual - intended).count());
}

}  // namespace

Actor::Actor(const Config& config, size_t num_phases)
    : config_(config),
      recorder_(num_phases, config.type),
      rng_(config.seed * 0x5851F42D4C957F2Dull +
           static_cast<uint64_t>(config.type) * 7919ull + config.ordinal) {
  MW_CHECK(config_.service != nullptr);
  MW_CHECK(config_.scripts != nullptr && !config_.scripts->empty())
      << "actors need at least one replay script";
}

const ReplayScript& Actor::PickScript(uint64_t iteration) const {
  const std::vector<ReplayScript>& scripts = *config_.scripts;
  switch (config_.type) {
    case ActorType::kSearcher:
      // Pinned per actor: repeated popular-entity traffic.
      return scripts[config_.ordinal % scripts.size()];
    case ActorType::kPruner:
    case ActorType::kBulkLoader:
    case ActorType::kCacheBuster:
      // Rotate round robin, staggered per actor so concurrent actors of
      // one type spread over the task list.
      return scripts[(config_.ordinal + iteration) % scripts.size()];
    case ActorType::kUpdater:
      break;  // updaters draw from the database, not the scripts
  }
  return scripts[0];
}

void Actor::RunUpdateIteration(const PhaseRuntime& phase,
                               double extra_latency_ms) {
  const std::string_view tenant = config_.tenant.empty()
                                      ? service::kDefaultTenant
                                      : std::string_view(config_.tenant);
  // Pin the current snapshot only to pick the insert: the batch itself is
  // validated against whatever snapshot is current when the writer runs.
  const auto pick_insert = [&]() -> std::optional<catalog::RowInsert> {
    auto pinned = config_.service->catalog().Pin(tenant);
    if (!pinned.ok()) return std::nullopt;
    return PickInsert((*pinned)->db(), &rng_);
  };
  std::optional<catalog::RowInsert> insert = pick_insert();
  if (!insert.has_value()) {
    recorder_.RecordSessionFailure(phase.index);
    return;
  }

  service::UpdateRequest request;
  request.tenant = std::string(tenant);
  request.deadline = phase.spec->request_deadline;
  request.batch.inserts.push_back(*std::move(insert));
  // Keep the backlog bounded: once enough of our own rows accumulated,
  // fold deletes of the oldest into the batch — steady churn instead of
  // unbounded growth. Only rows THIS actor inserted are ever deleted, so
  // concurrent updaters (and publishes in other tenants) never conflict.
  constexpr size_t kMaxOwnedRows = 8;
  std::vector<std::pair<std::string, storage::RowId>> deleting;
  while (owned_rows_.size() > deleting.size() &&
         owned_rows_.size() - deleting.size() >= kMaxOwnedRows) {
    deleting.push_back(owned_rows_[deleting.size()]);
    request.batch.deletes.push_back(
        catalog::RowDelete{deleting.back().first, deleting.back().second});
  }

  service::RequestResult result = config_.service->ApplyUpdate(request);
  if (phase.spec->arrival == ArrivalModel::kClosed) {
    while (result.outcome == service::RequestOutcome::kOverloaded) {
      recorder_.RecordOverloadRetry(phase.index);
      if (Clock::now() >= phase.deadline) {
        recorder_.Record(phase.index, result.outcome, 0.0);
        return;
      }
      std::this_thread::sleep_for(kOverloadBackoff);
      result = config_.service->ApplyUpdate(request);
    }
  }
  // Publish churn invalidates row ownership: a republish rebuilds the
  // tenant from its source relations, so row ids this actor inserted into
  // earlier minor epochs are out of range (or tombstoned) in the new
  // epoch and the whole batch is rejected atomically — InvalidArgument or
  // NotFound before the delta builds, FailedPrecondition when the
  // republish lands mid-Apply and the install loses its CAS. In every
  // case the safe reaction is the same: drop the stale ownership and
  // re-issue the insert alone; later iterations rebuild the delete
  // backlog against the new epoch's row ids. The insert is picked again
  // from the current snapshot, since InvalidArgument may also mean that a
  // concurrent updater inserted the same link first.
  if (!result.status.ok() &&
      (result.status.code() == StatusCode::kInvalidArgument ||
       result.status.code() == StatusCode::kNotFound ||
       result.status.code() == StatusCode::kFailedPrecondition)) {
    owned_rows_.clear();
    deleting.clear();
    request.batch.deletes.clear();
    if (std::optional<catalog::RowInsert> again = pick_insert()) {
      request.batch.inserts = {*std::move(again)};
    }
    result = config_.service->ApplyUpdate(request);
  }
  recorder_.Record(phase.index, result.outcome,
                   result.latency_ms + extra_latency_ms);
  if (result.status.ok() && result.update_minor_epoch > 0) {
    // The batch installed: the deletes are gone, the inserts are ours now.
    owned_rows_.erase(owned_rows_.begin(),
                      owned_rows_.begin() +
                          static_cast<ptrdiff_t>(deleting.size()));
    for (storage::RowId id : result.inserted_rows) {
      owned_rows_.emplace_back(request.batch.inserts[0].relation, id);
    }
  }
  // A failed/expired batch applied nothing: owned_rows_ stays as it was
  // (the rows queued for deletion are still live), and a later iteration
  // retries them.
}

bool Actor::IssueCell(const PhaseRuntime& phase, service::SessionId session,
                      size_t row, size_t col, const std::string& value,
                      double extra_latency_ms, service::RequestResult* out) {
  service::InputRequest request;
  request.session_id = session;
  request.row = row;
  request.col = col;
  request.value = value;
  request.deadline = phase.spec->request_deadline;

  service::RequestResult result = config_.service->Call(request);
  if (phase.spec->arrival == ArrivalModel::kClosed) {
    while (result.outcome == service::RequestOutcome::kOverloaded) {
      recorder_.RecordOverloadRetry(phase.index);
      if (Clock::now() >= phase.deadline) {
        // The phase expired while backing off: book the rejection and let
        // the iteration wind down.
        recorder_.Record(phase.index, result.outcome, 0.0);
        return false;
      }
      std::this_thread::sleep_for(kOverloadBackoff);
      result = config_.service->Call(request);
    }
  }
  recorder_.Record(phase.index, result.outcome,
                   result.latency_ms + extra_latency_ms);
  if (out != nullptr) *out = result;
  // A shed (overloaded) or timed-out (truncated) cell ends the iteration:
  // the user gave up — and a queue-expired truncation never applied the
  // input, so typing the next cell would hit an inconsistent session.
  if (result.outcome == service::RequestOutcome::kOverloaded ||
      result.outcome == service::RequestOutcome::kTruncated) {
    return false;
  }
  return result.status.ok();
}

void Actor::RunIteration(const PhaseRuntime& phase, uint64_t iteration,
                         double extra_latency_ms) {
  if (config_.type == ActorType::kUpdater) {
    // Updaters don't open sessions or replay scripts — each iteration is
    // one update batch through the service.
    ++lifetime_iterations_;
    RunUpdateIteration(phase, extra_latency_ms);
    return;
  }
  const ReplayScript& script = PickScript(lifetime_iterations_);
  ++lifetime_iterations_;

  // Publish churn: the bulk loader stamps a fresh epoch of its tenant
  // before loading, so its session below pins the NEW snapshot while
  // every concurrent searcher keeps its own pinned epoch. A failed
  // publish (chaos-injected or superseded) leaves the tenant on its old
  // epoch — book it and load against that.
  if (config_.publish_churn && config_.type == ActorType::kBulkLoader &&
      config_.catalog != nullptr && config_.make_database != nullptr) {
    auto published = config_.catalog->Publish(
        config_.tenant.empty() ? service::kDefaultTenant
                               : std::string_view(config_.tenant),
        (*config_.make_database)());
    if (!published.ok()) recorder_.RecordSessionFailure(phase.index);
  }

  auto created =
      config_.tenant.empty()
          ? config_.service->CreateSession(script.column_names)
          : config_.service->CreateSession(config_.tenant,
                                           script.column_names);
  if (!created.ok()) {
    recorder_.RecordSessionFailure(phase.index);
    return;
  }
  const service::SessionId session = *created;

  switch (config_.type) {
    case ActorType::kSearcher: {
      // The pinned script's first row, every iteration: cache-friendly.
      const std::vector<std::string>& first = script.rows.front();
      for (size_t col = 0; col < first.size(); ++col) {
        if (!IssueCell(phase, session, 0, col, first[col],
                       extra_latency_ms)) {
          break;
        }
      }
      break;
    }
    case ActorType::kCacheBuster: {
      // A different goal-target row as the first row each time: distinct
      // cache keys, so (almost) every search runs the full pipeline.
      const std::vector<std::string>& first =
          script.rows[iteration % script.rows.size()];
      for (size_t col = 0; col < first.size(); ++col) {
        if (!IssueCell(phase, session, 0, col, first[col],
                       extra_latency_ms)) {
          break;
        }
      }
      break;
    }
    case ActorType::kPruner: {
      service::RequestResult last;
      bool alive = true;
      for (size_t row = 0; alive && row < script.rows.size(); ++row) {
        for (size_t col = 0; col < script.rows[row].size(); ++col) {
          if (!IssueCell(phase, session, row, col, script.rows[row][col],
                         extra_latency_ms, &last)) {
            alive = false;
            break;
          }
        }
        if (last.state == core::SessionState::kConverged ||
            last.state == core::SessionState::kNoMapping) {
          break;  // the interactive user stops once the answer is clear
        }
      }
      break;
    }
    case ActorType::kBulkLoader: {
      // Everything, back to back — convergence does not stop a batch load.
      bool alive = true;
      for (size_t row = 0; alive && row < script.rows.size(); ++row) {
        for (size_t col = 0; col < script.rows[row].size(); ++col) {
          if (!IssueCell(phase, session, row, col, script.rows[row][col],
                         extra_latency_ms)) {
            alive = false;
            break;
          }
        }
      }
      break;
    }
    case ActorType::kUpdater:
      break;  // handled above; unreachable
  }
  (void)config_.service->CloseSession(session);
}

void Actor::RunPhase(const PhaseRuntime& phase) {
  const PhaseSpec& spec = *phase.spec;
  const bool count_bounded = spec.iterations > 0;

  if (spec.arrival == ArrivalModel::kClosed) {
    for (uint64_t i = 0;; ++i) {
      if (count_bounded) {
        if (i >= spec.iterations) break;
      } else if (Clock::now() >= phase.deadline) {
        break;
      }
      RunIteration(phase, i, /*extra_latency_ms=*/0.0);
      if (spec.think_time.count() > 0 && !count_bounded) {
        std::this_thread::sleep_for(spec.think_time);
      }
    }
    return;
  }

  // Open loop: iterations start on the fixed schedule
  //   intended(i) = phase.start + stagger + i * interval
  // where interval spreads rate_per_sec over the phase's active actors
  // and `stagger` offsets this actor so the fleet doesn't fire in bursts.
  // Latency is charged from intended(i): if the service (or this thread)
  // falls behind schedule, the lag lands in the recorded tail.
  const double per_actor_rate =
      spec.rate_per_sec / static_cast<double>(phase.active_actors);
  MW_CHECK(per_actor_rate > 0.0);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_actor_rate));
  const auto stagger = interval * phase.active_slot / phase.active_actors;

  for (uint64_t i = 0;; ++i) {
    const Clock::time_point intended = phase.start + stagger + interval * i;
    if (count_bounded) {
      if (i >= spec.iterations) break;
    } else if (intended >= phase.deadline) {
      break;
    }
    std::this_thread::sleep_until(intended);
    RunIteration(phase, i, LagMs(intended, Clock::now()));
  }
}

}  // namespace mweaver::workload
