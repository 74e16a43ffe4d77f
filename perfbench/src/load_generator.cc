#include "load_generator.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "service/metrics.h"

namespace mweaver::perfbench {

namespace {

// Wrong-answer and failure messages kept per round (the rest are counted).
constexpr size_t kMaxErrors = 8;

// Snapshots per round whose searches are kept for the 1-shard re-run.
constexpr size_t kMaxSampledSnapshots = 3;

}  // namespace

bool RequestFailed(const service::RequestResult& result) {
  return !result.status.ok() ||
         result.outcome == service::RequestOutcome::kFailed ||
         result.outcome == service::RequestOutcome::kOverloaded ||
         result.outcome == service::RequestOutcome::kTruncated;
}

struct LoadGenerator::Live {
  uint32_t plan = 0;
  service::SessionId id = 0;
  uint32_t next_key = 0;
  SessionRecord record;
};

struct LoadGenerator::RoundState {
  RoundOptions options;
  size_t sessions_per_update = 0;
  std::vector<Live> live;  // one per plan; each touched by one thread at a time
  std::atomic<size_t> next_plan{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failed{0};
  /// Completion callbacks currently running. The round's state must outlive
  /// them, so RunRound waits for zero after the last session completes.
  std::atomic<int> callbacks{0};

  std::mutex mu;  // guards everything below
  std::condition_variable cv;
  size_t completed = 0;
  std::vector<Clock::time_point> quota_met;  // writer batch b's quota reached
  std::vector<SearchSample> samples;
  /// Distinct snapshots the samples pin (bounded: each one stays alive).
  std::vector<const catalog::Snapshot*> sampled_snapshots;
  std::vector<UpdateRecord> updates;
  std::vector<std::string> errors;

  void AddError(std::string message) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
  }
};

std::vector<CandidateSig> Signatures(
    const std::vector<core::CandidateMapping>& candidates) {
  std::vector<CandidateSig> sigs;
  sigs.reserve(candidates.size());
  for (const core::CandidateMapping& c : candidates) {
    sigs.push_back(CandidateSig{c.mapping.Canonical(), c.support, c.score});
  }
  return sigs;
}

catalog::UpdateBatch WriterBatch(const Environment& env, size_t batch,
                                 const OwnedRows& owned) {
  catalog::UpdateBatch update;
  if (batch % 2 == 0) {
    for (const UpdateRow& row : env.update_rows[batch / 2]) {
      update.inserts.push_back(catalog::RowInsert{row.relation, row.row});
    }
  } else {
    for (const auto& [relation, id] : owned) {
      update.deletes.push_back(catalog::RowDelete{relation, id});
    }
  }
  return update;
}

OwnedRows InsertedRows(const catalog::UpdateBatch& batch,
                       const std::vector<storage::RowId>& inserted) {
  OwnedRows owned;
  for (size_t i = 0; i < inserted.size(); ++i) {
    owned.emplace_back(batch.inserts[i].relation, inserted[i]);
  }
  return owned;
}

bool Republish(catalog::Catalog* catalog, const storage::Database& source,
               bool variant) {
  storage::Database next = source.Clone();
  if (variant) {
    // The appended row gets the same physical id every time, so only the
    // shard owning that id differs between the two variants.
    const storage::RelationId movie = next.FindRelation("movie");
    next.mutable_relation(movie)->AppendUnchecked(
        source.relation(movie).row(0));
  }
  return catalog->Publish(kTenant, std::move(next)).ok();
}

LoadGenerator::LoadGenerator(service::MappingService* service, Environment* env,
               const WorkloadConfig& config)
    : service_(service), env_(env), config_(config) {}

RoundResult LoadGenerator::RunRound(const RoundOptions& options) {
  RoundState round;
  round.options = options;
  round.sessions_per_update = config_.sessions_per_update;
  const size_t plans = options.plans > 0
                           ? std::min(options.plans, env_->plans.size())
                           : env_->plans.size();
  round.live.resize(plans);
  for (size_t i = 0; i < plans; ++i) {
    round.live[i].plan = static_cast<uint32_t>(i);
    if (options.record_keys) {
      round.live[i].record.keys.resize(env_->plans[i].keys.size());
    }
  }
  round.quota_met.resize(options.writer ? plans / config_.sessions_per_update
                                        : 0);

  const Clock::time_point start = Clock::now();
  std::thread writer_thread;
  if (options.writer) {
    writer_thread = std::thread([this, &round] { WriterLoop(&round); });
  }
  for (size_t i = 0; i < options.in_flight; ++i) StartNext(&round);
  {
    std::unique_lock<std::mutex> lock(round.mu);
    round.cv.wait(lock, [&] { return round.completed == round.live.size(); });
  }
  if (writer_thread.joinable()) writer_thread.join();
  while (round.callbacks.load() > 0) std::this_thread::yield();

  RoundResult result;
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.sessions.reserve(plans);
  for (Live& live : round.live) {
    result.sessions.push_back(std::move(live.record));
  }
  result.updates = std::move(round.updates);
  result.search_samples = std::move(round.samples);
  result.requests = round.requests.load();
  result.requests_failed = round.failed.load();
  result.errors = std::move(round.errors);
  return result;
}

void LoadGenerator::StartNext(RoundState* round) {
  const size_t index = round->next_plan.fetch_add(1);
  if (index >= round->live.size()) return;
  Live* live = &round->live[index];
  const SessionPlan& plan = env_->plans[index];
  live->record.created = Clock::now();
  auto created =
      service_->CreateSession(kTenant, env_->tasks[plan.task].columns);
  live->record.start = Clock::now();
  if (created.ok()) {
    live->id = *created;
    SendKey(round, live);
    return;
  }
  round->requests.fetch_add(1);
  round->failed.fetch_add(1);
  round->AddError("CreateSession: " + created.status().ToString());
  Finish(round, live, SessionEnd::kFailed);  // starts the slot's next plan
}

void LoadGenerator::SendKey(RoundState* round, Live* live) {
  const SessionPlan& plan = env_->plans[live->plan];
  const uint32_t index = live->next_key++;
  const Keystroke& key = plan.keys[index];
  service::InputRequest request;
  request.session_id = live->id;
  request.row = key.grid_row;
  request.col = key.col;
  request.value = env_->tasks[plan.task].rows[key.task_row][key.col];
  KeyLog* log =
      round->options.record_keys ? &live->record.keys[index] : nullptr;
  const Clock::time_point sent = Clock::now();
  if (log != nullptr) log->sent = sent;
  // Once admitted, the callback may run on a worker before Enqueue returns.
  // From then on this thread touches only `log->admitted`, a field the
  // callback never writes; RunRound waits for running callbacks, and the
  // thread that sent the session's last keystroke is either the caller of
  // RunRound or a worker inside a callback.
  const Status admitted = service_->Enqueue(
      std::move(request), [this, round, live, sent](service::RequestResult r) {
        round->callbacks.fetch_add(1);
        OnResult(round, live, sent, std::move(r));
        round->callbacks.fetch_sub(1);
      });
  if (log != nullptr) log->admitted = Clock::now();
  if (!admitted.ok()) {
    round->requests.fetch_add(1);
    round->failed.fetch_add(1);
    round->AddError("Enqueue: " + admitted.ToString());
    Finish(round, live, SessionEnd::kFailed);
  }
}

void LoadGenerator::OnResult(RoundState* round, Live* live,
                             Clock::time_point sent,
                             service::RequestResult result) {
  const Clock::time_point now = Clock::now();
  round->requests.fetch_add(1);
  const uint32_t index = live->next_key - 1;
  if (round->options.record_keys) {
    KeyLog& log = live->record.keys[index];
    log.done = now;
    log.state = result.state;
    log.num_candidates = result.num_candidates;
    log.cache_hit = result.cache_hit;
  }
  if (RequestFailed(result)) {
    round->failed.fetch_add(1);
    round->AddError(std::string("keystroke ") +
                    service::RequestOutcomeName(result.outcome) + ": " +
                    result.status.ToString());
    Finish(round, live, SessionEnd::kFailed);
    return;
  }
  const SessionPlan& plan = env_->plans[live->plan];
  if (index == plan.search_key) {
    live->record.search_ms = MsBetween(sent, now);
    live->record.search_cache_hit = result.cache_hit;
    if (round->options.record_keys && !result.cache_hit) {
      (void)service_->sessions().WithSession(
          live->id, [live](core::Session& session) {
            live->record.search_probes =
                session.search_stats().trace.text_probes;
            return Status::OK();
          });
    }
    const size_t stride = round->options.sample_stride;
    if (stride > 0 && live->plan % stride == 0) {
      SearchSample sample;
      sample.plan = live->plan;
      auto pinned = service_->sessions().SnapshotOf(live->id);
      if (pinned.ok()) sample.snapshot = *pinned;
      (void)service_->sessions().WithSession(
          live->id, [&sample](core::Session& session) {
            sample.candidates = Signatures(session.candidates());
            return Status::OK();
          });
      std::lock_guard<std::mutex> lock(round->mu);
      auto& pinned_set = round->sampled_snapshots;
      const bool known = std::find(pinned_set.begin(), pinned_set.end(),
                                   sample.snapshot.get()) != pinned_set.end();
      if (known || pinned_set.size() < kMaxSampledSnapshots) {
        if (!known) pinned_set.push_back(sample.snapshot.get());
        round->samples.push_back(std::move(sample));
      }
    }
  }
  switch (result.state) {
    case core::SessionState::kConverged:
      Finish(round, live, SessionEnd::kConverged);
      return;
    case core::SessionState::kNoMapping:
      Finish(round, live, SessionEnd::kNoMapping);
      return;
    default:
      break;
  }
  if (live->next_key == plan.keys.size()) {
    Finish(round, live, SessionEnd::kUnconverged);
    return;
  }
  SendKey(round, live);
}

void LoadGenerator::Finish(RoundState* round, Live* live, SessionEnd end) {
  SessionRecord& record = live->record;
  record.end = Clock::now();
  record.session_ms = MsBetween(record.start, record.end);
  record.outcome = end;
  if (round->options.record_keys) record.keys.resize(live->next_key);
  const Task& task = env_->tasks[env_->plans[live->plan].task];
  if (end == SessionEnd::kConverged || end == SessionEnd::kUnconverged) {
    // Converged: the one candidate left is the goal. Unconverged: the goal
    // survived every sample of its own target.
    bool found = false;
    (void)service_->sessions().WithSession(
        live->id, [&](core::Session& session) {
          if (end == SessionEnd::kConverged) {
            found = session.best().mapping.Canonical() == task.goal_canonical;
          } else {
            for (const core::CandidateMapping& c : session.candidates()) {
              if (c.mapping.Canonical() == task.goal_canonical) found = true;
            }
          }
          return Status::OK();
        });
    record.wrong = !found;
  } else if (end == SessionEnd::kNoMapping) {
    record.wrong = true;
  }
  if (record.wrong) {
    round->AddError("plan " + std::to_string(live->plan) + " (" + task.name +
                    "): session did not keep the goal mapping");
  }
  if (live->id != 0) (void)service_->CloseSession(live->id);
  bool hand_off = false;
  {
    std::lock_guard<std::mutex> lock(round->mu);
    ++round->completed;
    const size_t k = round->sessions_per_update;
    const bool quota = k > 0 && round->completed % k == 0 &&
                       round->completed / k <= round->quota_met.size();
    if (quota) round->quota_met[round->completed / k - 1] = Clock::now();
    // A serial writer starts the next session itself once its batch landed.
    hand_off = quota && round->options.serial_writer;
    if (quota || round->completed == round->live.size()) {
      round->cv.notify_all();
    }
  }
  if (!hand_off) StartNext(round);
}

void LoadGenerator::WriterLoop(RoundState* round) {
  const size_t k = config_.sessions_per_update;
  OwnedRows owned;
  for (size_t b = 0; b < round->quota_met.size(); ++b) {
    UpdateRecord record;
    record.batch = b;
    {
      std::unique_lock<std::mutex> lock(round->mu);
      round->cv.wait(lock, [&] { return round->completed >= (b + 1) * k; });
      record.late_ms = MsBetween(round->quota_met[b], Clock::now());
      record.late_sessions = round->completed - (b + 1) * k;
    }
    service::UpdateRequest request;
    request.tenant = kTenant;
    request.batch = WriterBatch(*env_, b, owned);
    if (!request.batch.empty()) {
      record.start = Clock::now();
      service::RequestResult result = service_->ApplyUpdate(request);
      record.end = Clock::now();
      record.latency_ms = MsBetween(record.start, record.end);
      record.ok = !RequestFailed(result);
      round->requests.fetch_add(1);
      if (!record.ok) {
        round->failed.fetch_add(1);
        round->AddError(std::string("update ") +
                        service::RequestOutcomeName(result.outcome) + ": " +
                        result.status.ToString());
      }
      if (record.ok || b % 2 == 0) {
        owned = InsertedRows(request.batch, result.inserted_rows);
      }
      std::lock_guard<std::mutex> lock(round->mu);
      round->updates.push_back(record);
    }
    if ((b + 1) % config_.updates_per_publish == 0 && owned.empty()) {
      publish_variant_ = !publish_variant_;
      UpdateRecord publish;
      publish.batch = b;
      publish.publish = true;
      publish.start = Clock::now();
      publish.ok =
          Republish(&service_->catalog(), env_->source, publish_variant_);
      publish.end = Clock::now();
      publish.latency_ms = MsBetween(publish.start, publish.end);
      for (const catalog::TenantInfo& info :
           service_->catalog().ListTenants()) {
        if (info.name == kTenant) {
          publish.shards_rebuilt = info.shards_rebuilt_last;
        }
      }
      round->requests.fetch_add(1);
      if (!publish.ok) {
        round->failed.fetch_add(1);
        round->AddError("republish failed");
      }
      std::lock_guard<std::mutex> lock(round->mu);
      round->updates.push_back(publish);
    }
    if (round->options.serial_writer) StartNext(round);
  }
}

}  // namespace mweaver::perfbench
