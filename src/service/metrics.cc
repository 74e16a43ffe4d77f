#include "service/metrics.h"

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

void AppendJsonKey(std::string* out, const char* key, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
}

void AppendJsonUInt(std::string* out, const char* key, uint64_t value,
                    bool* first) {
  AppendJsonKey(out, key, first);
  *out += StrFormat("%llu", static_cast<unsigned long long>(value));
}

void AppendJsonDouble(std::string* out, const char* key, double value,
                      bool* first) {
  AppendJsonKey(out, key, first);
  *out += StrFormat("%.6g", value);
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendJsonUInt(&out, "requests_ok", requests_ok, &first);
  AppendJsonUInt(&out, "requests_degraded", requests_degraded, &first);
  AppendJsonUInt(&out, "requests_overloaded", requests_overloaded, &first);
  AppendJsonUInt(&out, "requests_truncated", requests_truncated, &first);
  AppendJsonUInt(&out, "requests_failed", requests_failed, &first);
  AppendJsonUInt(&out, "search_retries", search_retries, &first);
  AppendJsonUInt(&out, "update_retries", update_retries, &first);
  AppendJsonUInt(&out, "updates_ok", updates_ok, &first);
  AppendJsonUInt(&out, "updates_failed", updates_failed, &first);
  AppendJsonUInt(&out, "update_rows_inserted", update_rows_inserted, &first);
  AppendJsonUInt(&out, "update_rows_deleted", update_rows_deleted, &first);
  AppendJsonUInt(&out, "cache_hits", cache_hits, &first);
  AppendJsonUInt(&out, "cache_misses", cache_misses, &first);
  AppendJsonDouble(&out, "cache_hit_rate", CacheHitRate(), &first);
  AppendJsonUInt(&out, "queue_high_water", queue_high_water, &first);
  AppendJsonDouble(&out, "approx_latency_p50_ms",
                   ApproxLatencyPercentileMs(0.50), &first);
  AppendJsonDouble(&out, "approx_latency_p95_ms",
                   ApproxLatencyPercentileMs(0.95), &first);
  AppendJsonDouble(&out, "approx_latency_p99_ms",
                   ApproxLatencyPercentileMs(0.99), &first);
  AppendJsonUInt(&out, "text_probes", text_probes.probes, &first);
  AppendJsonUInt(&out, "text_memo_hits", text_probes.memo_hits, &first);
  AppendJsonUInt(&out, "text_memo_misses", text_probes.memo_misses, &first);
  AppendJsonUInt(&out, "text_candidates_examined",
                 text_probes.candidates_examined, &first);
  AppendJsonUInt(&out, "text_scan_fallbacks", text_probes.scan_fallbacks,
                 &first);
  AppendJsonUInt(&out, "text_all_rows_fallbacks",
                 text_probes.all_rows_fallbacks, &first);

  AppendJsonKey(&out, "stages", &first);
  out += '{';
  bool first_stage = true;
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    const uint64_t total = stage_latency[s].count();
    if (total == 0) continue;
    const auto stage = static_cast<core::SearchStage>(s);
    if (!first_stage) out += ',';
    first_stage = false;
    out += '"';
    out += core::SearchStageName(stage);
    out += "\":{";
    bool first_field = true;
    AppendJsonUInt(&out, "recorded", total, &first_field);
    AppendJsonDouble(&out, "p50_ms",
                     ApproxStageLatencyPercentileMs(stage, 0.50),
                     &first_field);
    AppendJsonDouble(&out, "p95_ms",
                     ApproxStageLatencyPercentileMs(stage, 0.95),
                     &first_field);
    out += '}';
  }
  out += "}}";
  return out;
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
  delta.latency.Subtract(earlier.latency);
  for (size_t s = 0; s < stage_latency.size(); ++s) {
    delta.stage_latency[s].Subtract(earlier.stage_latency[s]);
  }
  delta.text_probes.Subtract(earlier.text_probes);
  // queue_high_water keeps this snapshot's value (see header).
  return delta;
}

void ServiceMetrics::RecordRequest(RequestOutcome outcome, double latency_ms) {
  switch (outcome) {
    case RequestOutcome::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestOutcome::kOverloaded:
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      return;  // rejected at admission: no latency to record
    case RequestOutcome::kTruncated:
      truncated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestOutcome::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestOutcome::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  latency_.Record(latency_ms);
}

void ServiceMetrics::RecordQueueDepth(size_t depth) {
  uint64_t seen = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > seen && !queue_high_water_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void ServiceMetrics::RecordCacheLookup(bool hit) {
  (hit ? cache_hits_ : cache_misses_).fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::RecordSearchRetry() {
  search_retries_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::RecordUpdateRetry() {
  update_retries_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::RecordUpdate(bool ok, uint64_t rows_inserted,
                                  uint64_t rows_deleted) {
  if (!ok) {
    updates_failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  updates_ok_.fetch_add(1, std::memory_order_relaxed);
  update_rows_inserted_.fetch_add(rows_inserted, std::memory_order_relaxed);
  update_rows_deleted_.fetch_add(rows_deleted, std::memory_order_relaxed);
}

void ServiceMetrics::RecordSearchTrace(const core::ExecutionTrace& trace) {
  for (size_t s = 0; s < core::kNumSearchStages; ++s) {
    if (static_cast<core::SearchStage>(s) == core::SearchStage::kPrune) {
      continue;  // interactive-path stage: RecordPruneTrace owns it
    }
    stage_latency_[s].Record(trace.stages[s].wall_ms);
  }
  text_probes_.Record(trace.text_probes);
}

void ServiceMetrics::RecordPruneTrace(const core::ExecutionTrace& trace) {
  constexpr size_t kPruneIdx = static_cast<size_t>(core::SearchStage::kPrune);
  stage_latency_[kPruneIdx].Record(trace.stages[kPruneIdx].wall_ms);
  text_probes_.Record(trace.text_probes);
}

std::string ServiceMetrics::SnapshotJson() const {
  return Snapshot().ToJson();
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.requests_ok = ok_.load(std::memory_order_relaxed);
  snap.requests_overloaded = overloaded_.load(std::memory_order_relaxed);
  snap.requests_truncated = truncated_.load(std::memory_order_relaxed);
  snap.requests_degraded = degraded_.load(std::memory_order_relaxed);
  snap.requests_failed = failed_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.search_retries = search_retries_.load(std::memory_order_relaxed);
  snap.update_retries = update_retries_.load(std::memory_order_relaxed);
  snap.updates_ok = updates_ok_.load(std::memory_order_relaxed);
  snap.updates_failed = updates_failed_.load(std::memory_order_relaxed);
  snap.update_rows_inserted =
      update_rows_inserted_.load(std::memory_order_relaxed);
  snap.update_rows_deleted =
      update_rows_deleted_.load(std::memory_order_relaxed);
  snap.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  snap.latency = latency_.Snapshot();
  for (size_t s = 0; s < core::kNumSearchStages; ++s) {
    snap.stage_latency[s] = stage_latency_[s].Snapshot();
  }
  snap.text_probes = text_probes_.Snapshot();
  return snap;
}

std::shared_ptr<TenantMetricsRegistry::Counters>
TenantMetricsRegistry::ForTenant(std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(std::string(tenant), std::make_shared<Counters>())
             .first;
  }
  return it->second;
}

void TenantMetricsRegistry::RecordRequest(std::string_view tenant,
                                          RequestOutcome outcome) {
  const auto counters = ForTenant(tenant);
  counters->by_outcome[static_cast<size_t>(outcome)].fetch_add(
      1, std::memory_order_relaxed);
}

std::map<std::string, TenantMetricsSnapshot>
TenantMetricsRegistry::Snapshot() const {
  // Copy the (name -> counters) pairs under the lock, read the atomics
  // outside it.
  std::map<std::string, std::shared_ptr<Counters>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.insert(tenants_.begin(), tenants_.end());
  }
  std::map<std::string, TenantMetricsSnapshot> out;
  for (const auto& [name, counters] : live) {
    TenantMetricsSnapshot snap;
    const auto outcome = [&](RequestOutcome o) {
      return counters->by_outcome[static_cast<size_t>(o)].load(
          std::memory_order_relaxed);
    };
    snap.requests_ok = outcome(RequestOutcome::kOk);
    snap.requests_overloaded = outcome(RequestOutcome::kOverloaded);
    snap.requests_truncated = outcome(RequestOutcome::kTruncated);
    snap.requests_degraded = outcome(RequestOutcome::kDegraded);
    snap.requests_failed = outcome(RequestOutcome::kFailed);
    snap.cache_hits = counters->cache_hits.load(std::memory_order_relaxed);
    snap.cache_misses =
        counters->cache_misses.load(std::memory_order_relaxed);
    snap.sessions_created =
        counters->sessions_created.load(std::memory_order_relaxed);
    snap.share_rejections =
        counters->share_rejections.load(std::memory_order_relaxed);
    snap.updates_ok = counters->updates_ok.load(std::memory_order_relaxed);
    snap.updates_failed =
        counters->updates_failed.load(std::memory_order_relaxed);
    snap.update_shards_touched =
        counters->update_shards_touched.load(std::memory_order_relaxed);
    out.emplace(name, snap);
  }
  return out;
}

namespace {

// Tenant names are caller-chosen strings: escape the JSON specials so a
// quote or backslash in a name cannot corrupt the document.
void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

std::string TenantMetricsRegistry::ToJson() const {
  std::string out = "{";
  bool first_tenant = true;
  for (const auto& [name, snap] : Snapshot()) {
    if (!first_tenant) out += ',';
    first_tenant = false;
    AppendJsonString(&out, name);
    out += ":{";
    bool first = true;
    AppendJsonUInt(&out, "requests_ok", snap.requests_ok, &first);
    AppendJsonUInt(&out, "requests_degraded", snap.requests_degraded,
                   &first);
    AppendJsonUInt(&out, "requests_overloaded", snap.requests_overloaded,
                   &first);
    AppendJsonUInt(&out, "requests_truncated", snap.requests_truncated,
                   &first);
    AppendJsonUInt(&out, "requests_failed", snap.requests_failed, &first);
    AppendJsonUInt(&out, "share_rejections", snap.share_rejections, &first);
    AppendJsonUInt(&out, "updates_ok", snap.updates_ok, &first);
    AppendJsonUInt(&out, "updates_failed", snap.updates_failed, &first);
    AppendJsonUInt(&out, "update_shards_touched", snap.update_shards_touched,
                   &first);
    AppendJsonUInt(&out, "cache_hits", snap.cache_hits, &first);
    AppendJsonUInt(&out, "cache_misses", snap.cache_misses, &first);
    AppendJsonUInt(&out, "sessions_created", snap.sessions_created, &first);
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace mweaver::service
