// Chaos test: replay seeded random failpoint schedules against a live
// MappingService under concurrent load and assert the service-level
// invariants the design promises:
//
//   1. No crash, no hang: every Call() terminates, every keystroke either
//      lands within a bounded retry budget or is recorded as exhausted.
//   2. Every request is classified: the (outcome, status, flags) triple is
//      always internally consistent — never an "ok" failure or a silent
//      partial result.
//   3. Bookkeeping stays exact under fire: the metrics counters equal the
//      client-side tally call for call, session registry and result cache
//      sizes stay consistent, and closing sessions drains the registry.
//   4. Whenever a session saw no truncated (or exhausted) request, its
//      final mapping set equals the fault-free reference run — degraded
//      service may cost latency and retries, never answers.
//   5. Disarming everything restores a pristine service: chaos leaves no
//      residue.
//
// Schedules are fully deterministic (seeded schedule generator, seeded
// per-site policies, bounded fire budgets), so any failure replays from
// the schedule index printed by SCOPED_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/session.h"
#include "graph/schema_graph.h"
#include "service/mapping_service.h"
#include "storage/dump.h"
#include "test_util.h"
#include "text/fulltext_engine.h"

namespace mweaver::service {
namespace {

constexpr size_t kSessions = 8;  // one client thread per session
constexpr int kMainSchedules = 200;
constexpr int kDeadlineSchedules = 48;
constexpr int kRetryBudget = 12;  // > worst-case injected errors + overloads

struct Env {
  Env()
      : snapshot(catalog
                     .Publish(kDefaultTenant, testing::MakeFigure2Db())
                     .ValueOrDie()),
        engine(snapshot->engine()),
        graph(snapshot->graph()) {}
  // mutable: the catalog is internally synchronized, and chaos/stress
  // drivers share one Env through a const ref.
  mutable catalog::Catalog catalog;
  catalog::SnapshotPtr snapshot;
  const text::FullTextEngine& engine;
  const graph::SchemaGraph& graph;
};

const Env& SharedEnv() {
  static const Env* env = new Env();
  return *env;
}

const std::vector<std::tuple<size_t, size_t, const char*>>& Script() {
  static const auto* script =
      new std::vector<std::tuple<size_t, size_t, const char*>>{
          {0, 0, "Avatar"},
          {0, 1, "James Cameron"},
          {1, 0, "Harry Potter"},
          {1, 1, "David Yates"},
      };
  return *script;
}

struct Reference {
  std::set<std::string> candidates;
  core::SessionState state = core::SessionState::kAwaitingFirstRow;
};

// The fault-free answer every clean chaos session must reproduce. Computed
// through the full service stack (not a bare Session) so the comparison
// covers the caching search path too.
const Reference& CleanReference() {
  static const Reference* ref = []() {
    MW_CHECK(FailpointRegistry::Global().ArmedSites().empty());
    auto* r = new Reference();
    const Env& env = SharedEnv();
    MappingService service(&env.catalog, ServiceOptions{});
    auto created = service.CreateSession({"Name", "Director"});
    MW_CHECK(created.ok());
    for (const auto& [row, col, value] : Script()) {
      const RequestResult result =
          service.Call({*created, row, col, std::string(value)});
      MW_CHECK(result.status.ok());
    }
    const Status status =
        service.sessions().WithSession(*created, [&](core::Session& session) {
          r->candidates = testing::CanonicalMappingSet(session.candidates());
          r->state = session.state();
          return Status::OK();
        });
    MW_CHECK(status.ok());
    return r;
  }();
  return *ref;
}

// ------------------------------ schedule generator ------------------------

// Arms a random subset of the failpoint catalog with bounded, seeded
// policies. Budgets are capped so client-side retry loops provably
// terminate: error sites fire at most 3 times, admission rejections at
// most 5, latency spikes stay in the hundreds of microseconds.
std::vector<std::unique_ptr<ScopedFailpoint>> ArmRandomSchedule(
    Rng* rng, bool deadline_chaos) {
  std::vector<std::unique_ptr<ScopedFailpoint>> armed;
  auto arm = [&](const char* site, FailAction action, double probability,
                 uint32_t max_fires, std::chrono::microseconds delay =
                                         std::chrono::microseconds{0},
                 StatusCode code = StatusCode::kUnavailable) {
    FailpointPolicy policy;
    policy.action = action;
    policy.probability = probability;
    policy.max_fires = max_fires;
    policy.delay = delay;
    policy.error_code = code;
    policy.seed = static_cast<uint64_t>(rng->UniformInt(1, 1'000'000));
    armed.push_back(std::make_unique<ScopedFailpoint>(site, policy));
  };
  const auto micros = [&](size_t lo, size_t hi) {
    return std::chrono::microseconds(
        static_cast<int64_t>(lo + rng->Index(hi - lo)));
  };

  if (rng->Bernoulli(0.4)) {
    arm("common.arena.grow", FailAction::kDelay, 1.0, 5, micros(50, 200));
  }
  if (rng->Bernoulli(0.35)) {
    arm("core.weave.step", FailAction::kCancel,
        0.05 + 0.25 * rng->UniformDouble(),
        static_cast<uint32_t>(1 + rng->Index(3)));
  }
  if (rng->Bernoulli(0.35)) {
    arm("core.pairwise.exec", FailAction::kError, 1.0,
        static_cast<uint32_t>(1 + rng->Index(3)));
  }
  if (rng->Bernoulli(0.35)) {
    arm("core.pairwise.step", FailAction::kCancel,
        0.1 + 0.3 * rng->UniformDouble(),
        static_cast<uint32_t>(1 + rng->Index(2)));
  }
  if (rng->Bernoulli(0.5)) {
    arm("text.lookup.fast_path", FailAction::kTrigger,
        0.2 + 0.8 * rng->UniformDouble(), 25);
  }
  if (rng->Bernoulli(0.5)) {
    arm("text.probe_cache.insert", FailAction::kTrigger,
        0.2 + 0.8 * rng->UniformDouble(), 25);
  }
  if (rng->Bernoulli(0.4)) {
    arm("text.probe_cache.evict", FailAction::kTrigger, 0.3, 25);
  }
  if (rng->Bernoulli(0.4)) {
    arm("service.result_cache.insert", FailAction::kTrigger, 1.0, 10);
  }
  if (rng->Bernoulli(0.3)) {
    arm("service.queue.admit", FailAction::kTrigger,
        0.1 + 0.4 * rng->UniformDouble(),
        static_cast<uint32_t>(1 + rng->Index(5)));
  }
  if (rng->Bernoulli(0.4)) {
    arm("service.worker.dispatch", FailAction::kDelay, 1.0, 10,
        micros(100, 400));
  }
  if (rng->Bernoulli(0.35)) {
    arm("service.search.transient", FailAction::kError, 1.0,
        static_cast<uint32_t>(1 + rng->Index(3)));
  }
  if (deadline_chaos) {
    // Only reachable with a deadline armed on the ExecutionContext, so the
    // deadline sweep arms it unconditionally.
    arm("core.deadline.poll", FailAction::kTrigger,
        0.2 + 0.6 * rng->UniformDouble(),
        static_cast<uint32_t>(1 + rng->Index(5)));
  }
  return armed;
}

// ------------------------------- chaos client -----------------------------

struct Tally {
  uint64_t calls = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t truncated = 0;
  uint64_t failed = 0;
  uint64_t overloaded = 0;

  Tally& operator+=(const Tally& other) {
    calls += other.calls;
    ok += other.ok;
    degraded += other.degraded;
    truncated += other.truncated;
    failed += other.failed;
    overloaded += other.overloaded;
    return *this;
  }
};

struct SessionRun {
  Tally tally;
  bool truncated = false;   // some request reported a partial result
  bool exhausted = false;   // some keystroke never landed within budget
  bool classified = true;   // every (outcome, status, flags) was consistent
  std::string violation;    // first inconsistency, for the failure message
};

// Drives one session through the convergence script, retrying overloads
// and failures. Runs on a client thread, so it records violations instead
// of asserting (gtest assertions stay on the main thread).
SessionRun DriveScript(MappingService& service, SessionId id,
                       std::chrono::milliseconds deadline) {
  SessionRun run;
  auto flag = [&](const std::string& what) {
    if (run.classified) run.violation = what;
    run.classified = false;
  };
  for (const auto& [row, col, value] : Script()) {
    bool landed = false;
    for (int attempt = 0; attempt < kRetryBudget && !landed; ++attempt) {
      InputRequest request{id, row, col, std::string(value)};
      request.deadline = deadline;
      const RequestResult result = service.Call(request);
      ++run.tally.calls;
      switch (result.outcome) {
        case RequestOutcome::kOk:
          ++run.tally.ok;
          if (!result.status.ok() || result.truncated || result.degraded) {
            flag("kOk with !ok status or partial/degraded flags");
          }
          landed = true;
          break;
        case RequestOutcome::kDegraded:
          ++run.tally.degraded;
          if (!result.status.ok() || !result.degraded || result.truncated) {
            flag("kDegraded without ok status + degraded flag");
          }
          landed = true;
          break;
        case RequestOutcome::kTruncated:
          ++run.tally.truncated;
          if (!result.status.ok() || !result.truncated) {
            flag("kTruncated without ok status + truncated flag");
          }
          run.truncated = true;
          landed = true;
          break;
        case RequestOutcome::kFailed:
          ++run.tally.failed;
          if (result.status.ok()) flag("kFailed with ok status");
          break;  // retry: injected fire budgets are bounded
        case RequestOutcome::kOverloaded:
          ++run.tally.overloaded;
          if (!result.status.IsResourceExhausted()) {
            flag("kOverloaded without ResourceExhausted");
          }
          std::this_thread::yield();
          break;  // retry: admission rejections are bounded too
      }
    }
    if (!landed) {
      run.exhausted = true;
      break;  // later keystrokes would fail on FailedPrecondition anyway
    }
  }
  return run;
}

// Runs one full schedule: fresh service, kSessions concurrent clients,
// then single-threaded invariant checks. `deadline_chaos` adds request
// deadlines and the deadline-poll site; under those, pruning stages may
// keep extra (unexamined) candidates on a silent stop, so clean sessions
// are held to a superset — not equality — invariant.
void RunSchedule(int schedule, uint64_t seed_base, bool deadline_chaos,
                 Tally* sweep) {
  const Reference& reference = CleanReference();
  Rng rng(seed_base + static_cast<uint64_t>(schedule));
  const auto armed = ArmRandomSchedule(&rng, deadline_chaos);
  const std::chrono::milliseconds deadline{deadline_chaos ? 250 : 0};

  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  options.cache_capacity = 16;

  const Env& env = SharedEnv();
  MappingService service(&env.catalog, options);

  std::vector<SessionId> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    auto created = service.CreateSession({"Name", "Director"});
    ASSERT_TRUE(created.ok()) << created.status();
    ids.push_back(*created);
  }

  std::vector<SessionRun> runs(kSessions);
  {
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      clients.emplace_back([&service, &runs, &ids, deadline, i]() {
        runs[i] = DriveScript(service, ids[i], deadline);
      });
    }
    for (auto& t : clients) t.join();
  }

  // Invariant: every request terminated and was classified consistently.
  Tally total;
  for (size_t i = 0; i < kSessions; ++i) {
    total += runs[i].tally;
    EXPECT_TRUE(runs[i].classified)
        << "session " << i << ": " << runs[i].violation;
  }
  *sweep += total;

  // Invariant: the service counted exactly what the clients saw. Call()
  // is synchronous and metrics are recorded before the completion fires,
  // so the snapshot must match call for call.
  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_ok, total.ok);
  EXPECT_EQ(snapshot.requests_degraded, total.degraded);
  EXPECT_EQ(snapshot.requests_truncated, total.truncated);
  EXPECT_EQ(snapshot.requests_failed, total.failed);
  EXPECT_EQ(snapshot.requests_overloaded, total.overloaded);
  EXPECT_EQ(snapshot.TotalRequests(), total.calls);

  // Invariant: session and cache bookkeeping survived the chaos.
  EXPECT_EQ(service.sessions().size(), kSessions);
  EXPECT_LE(service.cache().size(), options.cache_capacity);

  // Invariant: sessions that never saw a partial result hold the
  // fault-free answer (deadline chaos: at least a superset of it — a
  // stopped pruning pass may keep extras, never drop valid mappings).
  for (size_t i = 0; i < kSessions; ++i) {
    if (runs[i].truncated || runs[i].exhausted) continue;
    std::set<std::string> candidates;
    core::SessionState state = core::SessionState::kAwaitingFirstRow;
    const Status status =
        service.sessions().WithSession(ids[i], [&](core::Session& session) {
          candidates = testing::CanonicalMappingSet(session.candidates());
          state = session.state();
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    if (deadline_chaos) {
      EXPECT_TRUE(std::includes(candidates.begin(), candidates.end(),
                                reference.candidates.begin(),
                                reference.candidates.end()))
          << "session " << i << " lost mappings under deadline chaos";
    } else {
      EXPECT_EQ(candidates, reference.candidates) << "session " << i;
      EXPECT_EQ(state, reference.state) << "session " << i;
    }
  }

  for (const SessionId id : ids) {
    EXPECT_TRUE(service.CloseSession(id).ok());
  }
  EXPECT_EQ(service.sessions().size(), 0u);
}

// ------------------------------- the sweeps -------------------------------

TEST(ChaosTest, SeededScheduleSweepPreservesInvariants) {
  Tally sweep;
  for (int schedule = 0; schedule < kMainSchedules; ++schedule) {
    SCOPED_TRACE("schedule " + std::to_string(schedule));
    RunSchedule(schedule, /*seed_base=*/123'000, /*deadline_chaos=*/false,
                &sweep);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(FailpointRegistry::Global().ArmedSites().empty());
  // The sweep must not be vacuous: every outcome class has to show up
  // somewhere across the 200 schedules (deterministic, so this is stable).
  EXPECT_GT(sweep.ok, 0u);
  EXPECT_GT(sweep.degraded, 0u);
  EXPECT_GT(sweep.truncated, 0u);
  EXPECT_GT(sweep.failed, 0u);
  EXPECT_GT(sweep.overloaded, 0u);
}

TEST(ChaosTest, DeadlineChaosKeepsRequestsClassified) {
  Tally sweep;
  for (int schedule = 0; schedule < kDeadlineSchedules; ++schedule) {
    SCOPED_TRACE("deadline schedule " + std::to_string(schedule));
    RunSchedule(schedule, /*seed_base=*/456'000, /*deadline_chaos=*/true,
                &sweep);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(FailpointRegistry::Global().ArmedSites().empty());
  EXPECT_GT(sweep.ok, 0u);
  EXPECT_GT(sweep.truncated, 0u);  // the deadline-poll site must bite
}

// After any amount of chaos, a disarmed service is indistinguishable from
// a never-faulted one: no poisoned caches, no stuck stop latches.
TEST(ChaosTest, DisarmedServiceRecoversCompletely) {
  {
    Rng rng(789);
    const auto armed = ArmRandomSchedule(&rng, /*deadline_chaos=*/true);
    EXPECT_FALSE(FailpointRegistry::Global().ArmedSites().empty());
  }
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(FailpointRegistry::Global().ArmedSites().empty());

  const Reference& reference = CleanReference();
  const Env& env = SharedEnv();
  MappingService service(&env.catalog, ServiceOptions{});
  auto created = service.CreateSession({"Name", "Director"});
  ASSERT_TRUE(created.ok()) << created.status();
  for (const auto& [row, col, value] : Script()) {
    const RequestResult result =
        service.Call({*created, row, col, std::string(value)});
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.outcome, RequestOutcome::kOk);
  }
  std::set<std::string> candidates;
  ASSERT_TRUE(service.sessions()
                  .WithSession(*created,
                               [&](core::Session& session) {
                                 candidates = testing::CanonicalMappingSet(
                                     session.candidates());
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(candidates, reference.candidates);
}

// ------------------------- publish-churn chaos ----------------------------

// Bulk-load chaos: the "catalog.tenant.publish" site flakes intermittently
// while client threads drive sessions AND a publisher churns the tenant.
// Invariants: a failed publish surfaces the injected (retryable) status
// and leaves the tenant serving its old epoch untouched; sessions pinned
// before or during the churn still converge on the fault-free answer; a
// disarmed republish lands cleanly.
TEST(ChaosTest, PublishFailuresNeverDisturbServingSnapshots) {
  const Reference& reference = CleanReference();

  catalog::Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());

  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  MappingService service(&catalog, options);

  FailpointPolicy flaky;
  flaky.action = FailAction::kError;  // injects Unavailable
  flaky.probability = 0.5;
  flaky.seed = 4242;
  size_t publish_ok = 0;
  size_t publish_failed = 0;
  {
    ScopedFailpoint armed("catalog.tenant.publish", flaky);

    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i) {
      auto created = service.CreateSession({"Name", "Director"});
      ASSERT_TRUE(created.ok()) << created.status();
      ids.push_back(*created);
    }

    std::vector<SessionRun> runs(kSessions);
    std::thread publisher([&]() {
      for (int i = 0; i < 24; ++i) {
        const uint64_t epoch_before = *catalog.CurrentEpoch(kDefaultTenant);
        auto published =
            catalog.Publish(kDefaultTenant, testing::MakeFigure2Db());
        if (published.ok()) {
          ++publish_ok;
        } else {
          ++publish_failed;
          // Failed ingestion is retryable and side-effect free: the
          // tenant still serves, at an epoch no older than before.
          EXPECT_TRUE(published.status().IsUnavailable())
              << published.status();
          EXPECT_GE(*catalog.CurrentEpoch(kDefaultTenant), epoch_before);
        }
      }
    });
    {
      std::vector<std::thread> clients;
      for (size_t i = 0; i < kSessions; ++i) {
        clients.emplace_back([&service, &runs, &ids, i]() {
          runs[i] = DriveScript(service, ids[i],
                                std::chrono::milliseconds{0});
        });
      }
      for (auto& t : clients) t.join();
    }
    publisher.join();

    // Publish faults are invisible to readers: every clean session holds
    // the fault-free answer on its pinned epoch.
    for (size_t i = 0; i < kSessions; ++i) {
      EXPECT_TRUE(runs[i].classified)
          << "session " << i << ": " << runs[i].violation;
      if (runs[i].truncated || runs[i].exhausted) continue;
      std::set<std::string> candidates;
      ASSERT_TRUE(service.sessions()
                      .WithSession(ids[i],
                                   [&](core::Session& session) {
                                     candidates =
                                         testing::CanonicalMappingSet(
                                             session.candidates());
                                     return Status::OK();
                                   })
                      .ok());
      EXPECT_EQ(candidates, reference.candidates) << "session " << i;
    }
    for (const SessionId id : ids) {
      EXPECT_TRUE(service.CloseSession(id).ok());
    }
  }
  // The sweep must exercise both sides of the coin flip (seeded, stable).
  EXPECT_GT(publish_ok, 0u);
  EXPECT_GT(publish_failed, 0u);

  // Disarmed, ingestion heals: the next publish lands and bumps the epoch.
  const uint64_t before = *catalog.CurrentEpoch(kDefaultTenant);
  auto healed = catalog.Publish(kDefaultTenant, testing::MakeFigure2Db());
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_GT((*healed)->epoch(), before);
}

// ------------------------- streaming-update chaos -------------------------

// Update chaos: both streaming failpoints ("catalog.tenant.apply_update"
// before the delta build, "catalog.tenant.delta_build" after it) flake
// while client threads drive sessions and a writer applies insert/delete
// batches. Invariants: a failed update surfaces the injected (retryable)
// status and leaves the tenant serving the very snapshot object it served
// before — not merely the same epoch; successful updates land on strictly
// increasing minor epochs; sessions pinned before the churn still
// converge on the fault-free answer; disarmed, updates heal.
TEST(ChaosTest, UpdateFailuresNeverDisturbServingSnapshots) {
  const Reference& reference = CleanReference();

  catalog::Catalog catalog;
  ASSERT_TRUE(catalog.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());

  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  MappingService service(&catalog, options);

  catalog::TenantWriter writer(&catalog);

  FailpointPolicy flaky;
  flaky.action = FailAction::kError;  // injects Unavailable
  flaky.probability = 0.5;
  flaky.seed = 4242;
  FailpointPolicy build_flaky = flaky;
  build_flaky.seed = 2424;
  size_t updates_ok = 0;
  size_t updates_failed = 0;
  {
    ScopedFailpoint armed_apply("catalog.tenant.apply_update", flaky);
    ScopedFailpoint armed_build("catalog.tenant.delta_build", build_flaky);

    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i) {
      auto created = service.CreateSession({"Name", "Director"});
      ASSERT_TRUE(created.ok()) << created.status();
      ids.push_back(*created);
    }

    std::vector<SessionRun> runs(kSessions);
    std::thread updater([&]() {
      // Filler rows only: titles that never collide with the reference
      // script, so even unpinned readers would see identical answers.
      std::vector<storage::RowId> owned;
      for (int i = 0; i < 32; ++i) {
        const catalog::SnapshotPtr before =
            catalog.Pin(kDefaultTenant).ValueOrDie();
        catalog::UpdateBatch batch;
        if (owned.size() >= 4) {
          batch.deletes.push_back(catalog::RowDelete{"movie", owned.front()});
        } else {
          batch.inserts.push_back(catalog::RowInsert{
              "movie", {testing::I(1000 + i),
                        testing::S("zz chaos filler " + std::to_string(i))}});
        }
        auto applied = writer.Apply(kDefaultTenant, batch);
        if (applied.ok()) {
          ++updates_ok;
          // Same epoch, strictly newer minor epoch: a delta, not a churn.
          EXPECT_EQ(applied->snapshot->epoch(), before->epoch());
          EXPECT_GT(applied->snapshot->minor_epoch(), before->minor_epoch());
          if (!batch.deletes.empty()) {
            owned.erase(owned.begin());
          } else {
            owned.insert(owned.end(), applied->inserted_rows.begin(),
                         applied->inserted_rows.end());
          }
        } else {
          ++updates_failed;
          // Failed update is retryable and side-effect free: the tenant
          // still serves the exact snapshot it served before the attempt.
          EXPECT_TRUE(applied.status().IsUnavailable()) << applied.status();
          const catalog::SnapshotPtr after =
              catalog.Pin(kDefaultTenant).ValueOrDie();
          EXPECT_EQ(after.get(), before.get());
        }
      }
    });
    {
      std::vector<std::thread> clients;
      for (size_t i = 0; i < kSessions; ++i) {
        clients.emplace_back([&service, &runs, &ids, i]() {
          runs[i] = DriveScript(service, ids[i],
                                std::chrono::milliseconds{0});
        });
      }
      for (auto& t : clients) t.join();
    }
    updater.join();

    // Update faults (and successes) are invisible to pinned readers:
    // every clean session holds the fault-free answer on its epoch.
    for (size_t i = 0; i < kSessions; ++i) {
      EXPECT_TRUE(runs[i].classified)
          << "session " << i << ": " << runs[i].violation;
      if (runs[i].truncated || runs[i].exhausted) continue;
      std::set<std::string> candidates;
      ASSERT_TRUE(service.sessions()
                      .WithSession(ids[i],
                                   [&](core::Session& session) {
                                     candidates =
                                         testing::CanonicalMappingSet(
                                             session.candidates());
                                     return Status::OK();
                                   })
                      .ok());
      EXPECT_EQ(candidates, reference.candidates) << "session " << i;
    }
    for (const SessionId id : ids) {
      EXPECT_TRUE(service.CloseSession(id).ok());
    }
  }
  // The sweep must exercise both sides of the coin flips (seeded, stable).
  EXPECT_GT(updates_ok, 0u);
  EXPECT_GT(updates_failed, 0u);

  // Disarmed, streaming heals: the next batch lands and bumps the minor
  // epoch from wherever the chaos sweep left it.
  const catalog::SnapshotPtr before = catalog.Pin(kDefaultTenant).ValueOrDie();
  catalog::UpdateBatch healed_batch;
  healed_batch.inserts.push_back(catalog::RowInsert{
      "movie", {testing::I(9999), testing::S("zz healed filler")}});
  auto healed = writer.Apply(kDefaultTenant, healed_batch);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_GT(healed->snapshot->minor_epoch(), before->minor_epoch());
}

// ------------------------- storage-load fault sweep -----------------------

// Serialization chaos: injected relation/FK read failures must surface as
// the injected status (site name attached), never corrupt a "successful"
// load, and leave clean reloads working once disarmed.
TEST(StorageChaosTest, LoadEitherFailsCleanlyOrLoadsExactly) {
  const storage::Database db = testing::MakeFigure2Db();
  std::ostringstream dumped;
  ASSERT_TRUE(storage::DumpDatabase(db, &dumped).ok());
  const std::string bytes = dumped.str();

  size_t loads_ok = 0;
  size_t loads_failed = 0;
  for (int seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FailpointPolicy relation_fault;
    relation_fault.action = FailAction::kError;
    relation_fault.probability = 0.25;
    relation_fault.max_fires = 2;
    relation_fault.seed = 900 + static_cast<uint64_t>(seed);
    FailpointPolicy fk_fault = relation_fault;
    fk_fault.error_code = StatusCode::kIOError;
    fk_fault.seed = 1900 + static_cast<uint64_t>(seed);
    ScopedFailpoint fp_relation("storage.load.relation", relation_fault);
    ScopedFailpoint fp_fk("storage.load.foreign_key", fk_fault);

    std::istringstream in(bytes);
    auto loaded = storage::LoadDatabase(&in);
    if (loaded.ok()) {
      ++loads_ok;
      EXPECT_EQ(loaded->num_relations(), db.num_relations());
    } else {
      ++loads_failed;
      const Status& status = loaded.status();
      EXPECT_TRUE(status.IsUnavailable() || status.IsIOError()) << status;
      EXPECT_NE(status.message().find("injected failure"), std::string::npos)
          << status;
    }
  }
  // The sweep must actually exercise both branches.
  EXPECT_GT(loads_ok, 0u);
  EXPECT_GT(loads_failed, 0u);

  std::istringstream in(bytes);
  auto reloaded = storage::LoadDatabase(&in);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->num_relations(), db.num_relations());
}

}  // namespace
}  // namespace mweaver::service
