#include "service/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace mweaver::service {

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kOverloaded:
      return "overloaded";
    case RequestOutcome::kTruncated:
      return "truncated";
    case RequestOutcome::kDegraded:
      return "degraded";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "?";
}

double MetricsSnapshot::CacheHitRate() const {
  const uint64_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                static_cast<double>(total);
}

double MetricsSnapshot::TextMemoHitRate() const {
  return text_probes.probes == 0
             ? 0.0
             : static_cast<double>(text_probes.memo_hits) /
                   static_cast<double>(text_probes.probes);
}

double MetricsSnapshot::ApproxLatencyPercentileMs(double p) const {
  return latency.PercentileMs(p);
}

double MetricsSnapshot::ApproxStageLatencyPercentileMs(
    core::SearchStage stage, double p) const {
  return stage_latency[static_cast<size_t>(stage)].PercentileMs(p);
}

std::string MetricsSnapshot::ToString() const {
  std::string out = StrFormat(
      "requests: %llu ok, %llu truncated, %llu degraded, %llu failed, "
      "%llu overloaded | retries: %llu search, %llu update | "
      "cache: %llu hits / %llu misses (%.1f%%) | queue high-water: %llu | "
      "latency p50/p95/p99 ~ %.3f/%.3f/%.3f ms",
      static_cast<unsigned long long>(requests_ok),
      static_cast<unsigned long long>(requests_truncated),
      static_cast<unsigned long long>(requests_degraded),
      static_cast<unsigned long long>(requests_failed),
      static_cast<unsigned long long>(requests_overloaded),
      static_cast<unsigned long long>(search_retries),
      static_cast<unsigned long long>(update_retries),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), CacheHitRate() * 100.0,
      static_cast<unsigned long long>(queue_high_water),
      ApproxLatencyPercentileMs(0.50), ApproxLatencyPercentileMs(0.95),
      ApproxLatencyPercentileMs(0.99));
  if (updates_ok + updates_failed > 0) {
    out += StrFormat(
        " | updates: %llu ok, %llu failed (+%llu/-%llu rows)",
        static_cast<unsigned long long>(updates_ok),
        static_cast<unsigned long long>(updates_failed),
        static_cast<unsigned long long>(update_rows_inserted),
        static_cast<unsigned long long>(update_rows_deleted));
  }
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    if (stage_latency[s].count() == 0) continue;
    const core::SearchStage stage = static_cast<core::SearchStage>(s);
    out += StrFormat(" | %s p50/p95 ~ %.3f/%.3f ms",
                     core::SearchStageName(stage),
                     ApproxStageLatencyPercentileMs(stage, 0.50),
                     ApproxStageLatencyPercentileMs(stage, 0.95));
  }
  if (text_probes.probes > 0) {
    out += StrFormat(
        " | text probes: %llu (memo %llu/%llu, %.1f%% hit; cand %llu; "
        "scan %llu; allrows %llu)",
        static_cast<unsigned long long>(text_probes.probes),
        static_cast<unsigned long long>(text_probes.memo_hits),
        static_cast<unsigned long long>(text_probes.memo_misses),
        TextMemoHitRate() * 100.0,
        static_cast<unsigned long long>(text_probes.candidates_examined),
        static_cast<unsigned long long>(text_probes.scan_fallbacks),
        static_cast<unsigned long long>(text_probes.all_rows_fallbacks));
  }
  return out;
}

namespace {

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }

void RaiseHighWater(std::atomic<uint64_t>* high_water, uint64_t depth) {
  uint64_t seen = high_water->load(std::memory_order_relaxed);
  while (depth > seen && !high_water->compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void Bump(std::atomic<uint64_t>* counter, uint64_t n = 1) {
  counter->fetch_add(n, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->KV("requests_ok", requests_ok);
  w->KV("requests_degraded", requests_degraded);
  w->KV("requests_overloaded", requests_overloaded);
  w->KV("requests_truncated", requests_truncated);
  w->KV("requests_failed", requests_failed);
  w->KV("share_rejections", share_rejections);
  w->KV("search_retries", search_retries);
  w->KV("update_retries", update_retries);
  w->KV("updates_ok", updates_ok);
  w->KV("updates_failed", updates_failed);
  w->KV("update_rows_inserted", update_rows_inserted);
  w->KV("update_rows_deleted", update_rows_deleted);
  w->KV("cache_hits", cache_hits);
  w->KV("cache_misses", cache_misses);
  w->KV("cache_hit_rate", CacheHitRate());
  w->KV("sessions_created", sessions_created);
  w->KV("queue_high_water", queue_high_water);
  w->KV("approx_latency_p50_ms", ApproxLatencyPercentileMs(0.50));
  w->KV("approx_latency_p95_ms", ApproxLatencyPercentileMs(0.95));
  w->KV("approx_latency_p99_ms", ApproxLatencyPercentileMs(0.99));
  w->KV("text_probes", text_probes.probes);
  w->KV("text_memo_hits", text_probes.memo_hits);
  w->KV("text_memo_misses", text_probes.memo_misses);
  w->KV("text_candidates_examined", text_probes.candidates_examined);
  w->KV("text_scan_fallbacks", text_probes.scan_fallbacks);
  w->KV("text_all_rows_fallbacks", text_probes.all_rows_fallbacks);
  w->Key("stages").BeginObject();
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    const uint64_t total = stage_latency[s].count();
    if (total == 0) continue;
    const auto stage = static_cast<core::SearchStage>(s);
    w->Key(core::SearchStageName(stage)).BeginObject();
    w->KV("recorded", total);
    w->KV("p50_ms", ApproxStageLatencyPercentileMs(stage, 0.50));
    w->KV("p95_ms", ApproxStageLatencyPercentileMs(stage, 0.95));
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter writer;
  WriteJson(&writer);
  return writer.Finish();
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  requests_ok += other.requests_ok;
  requests_overloaded += other.requests_overloaded;
  requests_truncated += other.requests_truncated;
  requests_degraded += other.requests_degraded;
  requests_failed += other.requests_failed;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  search_retries += other.search_retries;
  update_retries += other.update_retries;
  updates_ok += other.updates_ok;
  updates_failed += other.updates_failed;
  update_rows_inserted += other.update_rows_inserted;
  update_rows_deleted += other.update_rows_deleted;
  sessions_created += other.sessions_created;
  share_rejections += other.share_rejections;
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
  latency.Merge(other.latency);
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    stage_latency[s].Merge(other.stage_latency[s]);
  }
  text_probes.Add(other.text_probes);
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta = *this;
  delta.requests_ok = SaturatingSub(requests_ok, earlier.requests_ok);
  delta.requests_overloaded =
      SaturatingSub(requests_overloaded, earlier.requests_overloaded);
  delta.requests_truncated =
      SaturatingSub(requests_truncated, earlier.requests_truncated);
  delta.requests_degraded =
      SaturatingSub(requests_degraded, earlier.requests_degraded);
  delta.requests_failed =
      SaturatingSub(requests_failed, earlier.requests_failed);
  delta.cache_hits = SaturatingSub(cache_hits, earlier.cache_hits);
  delta.cache_misses = SaturatingSub(cache_misses, earlier.cache_misses);
  delta.search_retries = SaturatingSub(search_retries, earlier.search_retries);
  delta.update_retries = SaturatingSub(update_retries, earlier.update_retries);
  delta.updates_ok = SaturatingSub(updates_ok, earlier.updates_ok);
  delta.updates_failed = SaturatingSub(updates_failed, earlier.updates_failed);
  delta.update_rows_inserted =
      SaturatingSub(update_rows_inserted, earlier.update_rows_inserted);
  delta.update_rows_deleted =
      SaturatingSub(update_rows_deleted, earlier.update_rows_deleted);
  delta.sessions_created =
      SaturatingSub(sessions_created, earlier.sessions_created);
  delta.share_rejections =
      SaturatingSub(share_rejections, earlier.share_rejections);
  delta.latency.Subtract(earlier.latency);
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    delta.stage_latency[s].Subtract(earlier.stage_latency[s]);
  }
  delta.text_probes.Subtract(earlier.text_probes);
  // queue_high_water keeps this snapshot's value (see header).
  return delta;
}

void TenantMetrics::RecordRequest(RequestOutcome outcome, double latency_ms) {
  Bump(&by_outcome_[static_cast<size_t>(outcome)]);
  // Rejected at admission: no latency to record.
  if (outcome != RequestOutcome::kOverloaded) latency_.Record(latency_ms);
}

void TenantMetrics::RecordQueueDepth(size_t depth) {
  RaiseHighWater(&queue_high_water_, depth);
}

void TenantMetrics::RecordCacheLookup(bool hit) {
  Bump(hit ? &cache_hits_ : &cache_misses_);
}

void TenantMetrics::RecordSearchRetry() { Bump(&search_retries_); }

void TenantMetrics::RecordUpdateRetry() { Bump(&update_retries_); }

void TenantMetrics::RecordSessionCreated() { Bump(&sessions_created_); }

void TenantMetrics::RecordShareRejection() { Bump(&share_rejections_); }

void TenantMetrics::RecordUpdate(bool ok, uint64_t rows_inserted,
                                 uint64_t rows_deleted) {
  if (!ok) {
    Bump(&updates_failed_);
    return;
  }
  Bump(&updates_ok_);
  Bump(&update_rows_inserted_, rows_inserted);
  Bump(&update_rows_deleted_, rows_deleted);
}

void TenantMetrics::RecordSearchTrace(const core::ExecutionTrace& trace) {
  for (size_t s = 0; s < core::kNumSearchStages; ++s) {
    if (static_cast<core::SearchStage>(s) == core::SearchStage::kPrune) {
      continue;  // interactive-path stage: RecordPruneTrace owns it
    }
    stage_latency_[s].Record(trace.stages[s].wall_ms);
  }
  text_probes_.Record(trace.text_probes);
}

void TenantMetrics::RecordPruneTrace(const core::ExecutionTrace& trace) {
  constexpr size_t kPruneIdx = static_cast<size_t>(core::SearchStage::kPrune);
  stage_latency_[kPruneIdx].Record(trace.stages[kPruneIdx].wall_ms);
  text_probes_.Record(trace.text_probes);
}

MetricsSnapshot TenantMetrics::Snapshot() const {
  MetricsSnapshot snap;
  const auto outcome = [&](RequestOutcome o) {
    return Load(by_outcome_[static_cast<size_t>(o)]);
  };
  snap.requests_ok = outcome(RequestOutcome::kOk);
  snap.requests_overloaded = outcome(RequestOutcome::kOverloaded);
  snap.requests_truncated = outcome(RequestOutcome::kTruncated);
  snap.requests_degraded = outcome(RequestOutcome::kDegraded);
  snap.requests_failed = outcome(RequestOutcome::kFailed);
  snap.cache_hits = Load(cache_hits_);
  snap.cache_misses = Load(cache_misses_);
  snap.search_retries = Load(search_retries_);
  snap.update_retries = Load(update_retries_);
  snap.updates_ok = Load(updates_ok_);
  snap.updates_failed = Load(updates_failed_);
  snap.update_rows_inserted = Load(update_rows_inserted_);
  snap.update_rows_deleted = Load(update_rows_deleted_);
  snap.sessions_created = Load(sessions_created_);
  snap.share_rejections = Load(share_rejections_);
  snap.queue_high_water = Load(queue_high_water_);
  snap.latency = latency_.Snapshot();
  for (size_t s = 0; s < core::kNumSearchStages; ++s) {
    snap.stage_latency[s] = stage_latency_[s].Snapshot();
  }
  snap.text_probes = text_probes_.Snapshot();
  return snap;
}

MetricsRegistry::MetricsRegistry()
    : unattributed_(std::make_shared<TenantMetrics>(std::string())) {}

std::shared_ptr<TenantMetrics> MetricsRegistry::ForTenant(
    std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(std::string(tenant),
                      std::make_shared<TenantMetrics>(std::string(tenant)))
             .first;
  }
  return it->second;
}

void MetricsRegistry::RecordQueueDepth(size_t depth) {
  RaiseHighWater(&queue_high_water_, depth);
}

std::map<std::string, MetricsSnapshot> MetricsRegistry::PerTenant() const {
  // Copy the (name -> record) pairs under the lock, read the atomics
  // outside it.
  std::map<std::string, std::shared_ptr<TenantMetrics>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.insert(tenants_.begin(), tenants_.end());
  }
  std::map<std::string, MetricsSnapshot> out;
  for (const auto& [name, record] : live) out.emplace(name, record->Snapshot());
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot total;
  for (const auto& [name, snap] : PerTenant()) total.Merge(snap);
  total.Merge(unattributed_->Snapshot());
  total.queue_high_water = Load(queue_high_water_);
  return total;
}

std::string MetricsRegistry::PerTenantJson() const {
  JsonWriter writer;
  writer.BeginObject();
  for (const auto& [name, snap] : PerTenant()) {
    writer.Key(name);
    snap.WriteJson(&writer);
  }
  writer.EndObject();
  return writer.Finish();
}

}  // namespace mweaver::service
