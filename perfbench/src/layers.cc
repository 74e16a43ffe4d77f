#include "layers.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "catalog/tenant_writer.h"
#include "common.h"
#include "common/logging.h"
#include "core/location_map.h"
#include "core/pairwise.h"
#include "core/ranking.h"
#include "core/session.h"
#include "core/weaver.h"
#include "load_generator.h"
#include "service/mapping_service.h"
#include "text/numeric.h"
#include "text/sharded_engine.h"

namespace mweaver::perfbench {

namespace {

// ------------------------------------------------------------------ spans --

struct Span {
  const char* name = "";
  int parent = -1;
  uint32_t session = 0;
  Clock::time_point start;
  Clock::time_point end;
  double us() const { return UsBetween(start, end); }
};

class SpanRecorder {
 public:
  int Add(const char* name, int parent, uint32_t session,
          Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, parent, session, start, end});
    return static_cast<int>(spans_.size() - 1);
  }
  int Open(const char* name, int parent, uint32_t session) {
    const Clock::time_point now = Clock::now();
    return Add(name, parent, session, now, now);
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }
  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: duration minus the children's durations.
  std::vector<double> SelfUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].us();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.us();
    }
    return self;
  }

  bool WriteChromeTrace(const std::string& path, Clock::time_point origin) {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d}}\n",
                    i == 0 ? "" : ",", s.name, s.session,
                    UsBetween(origin, s.start), s.us(), i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// The layer a span belongs to: its name up to the first dot; the
// benchmark's own session and replay roots count as "bench".
std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? "bench" : s.substr(0, dot);
}

// ------------------------------------------------------------- the replay --

struct SearchCounts {
  double locate_ms = 0, pairwise_gen_ms = 0, pairwise_exec_ms = 0;
  double weave_ms = 0, rank_ms = 0;
  uint64_t allocs = 0;
  uint64_t complete_paths = 0;
  uint64_t valid_mappings = 0;
  uint64_t pairwise_mappings = 0;
  uint64_t path_queries = 0;
  uint64_t query_tuple_paths = 0;
  bool truncated = false;
};

struct ProbeRecord {
  text::AttributeRef attr;
  std::string sample;
};

// Collected over pass B.
struct LayerSamples {
  std::vector<double> keystroke_us, cache_hit_us, overhead_us, admit_us;
  std::vector<double> create_us, prune_us, pin_us;
  std::vector<double> probe_us;  // mean MatchingRows time of each search
  std::vector<double> apply_ms, publish_ms;
  std::vector<SearchCounts> searches;
  std::vector<ProbeRecord> probes;  // for the shard-overhead comparison
  uint64_t probe_calls = 0;     // replayed MatchingRows calls
  uint64_t counted_probes = 0;  // the probes the engine counted for them
  text::ProbeStats service_probes;            // the service's own searches
  uint64_t service_searches = 0;
  uint64_t search_keys = 0, search_hits = 0;
  uint64_t samples = 0, sessions = 0;
  uint64_t updates = 0, shards_touched = 0, conflicts = 0;
  uint64_t publishes = 0, shards_rebuilt = 0;
  uint64_t requests = 0, shed = 0;
};

// Indexed string attributes of `engine` in slot order (FindOccurrences'
// probe order).
std::vector<text::AttributeRef> IndexedAttributes(
    const text::FullTextEngine& engine) {
  std::vector<std::pair<int, text::AttributeRef>> slots;
  const storage::Database& db = engine.db();
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const auto rel = static_cast<storage::RelationId>(r);
    for (size_t a = 0; a < db.relation(rel).schema().num_attributes(); ++a) {
      const text::AttributeRef attr{rel, static_cast<storage::AttributeId>(a)};
      const int slot = engine.AttrSlot(attr);
      if (slot >= 0 &&
          static_cast<size_t>(slot) < engine.num_indexed_attributes()) {
        slots.emplace_back(slot, attr);
      }
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<text::AttributeRef> attrs;
  for (const auto& [slot, attr] : slots) attrs.push_back(attr);
  return attrs;
}

// MatchingRows calls FindOccurrences makes for `first_row`: every indexed
// attribute per non-empty sample, plus every numeric attribute per numeric
// sample. A sharded engine counts a memo miss as 1 + N probes; this is
// the count of calls.
uint64_t LogicalProbes(const text::FullTextEngine& engine,
                       const std::vector<std::string>& first_row) {
  uint64_t calls = 0;
  for (const std::string& sample : first_row) {
    if (sample.empty()) continue;
    calls += engine.num_indexed_attributes();
    if (engine.policy().match_numeric && text::ParseNumeric(sample)) {
      calls += engine.num_numeric_attributes();
    }
  }
  return calls;
}

// Replays one session's keystrokes into core::Session (and, for the first
// row, the TPW stage functions) on the replay snapshot.
class Replayer {
 public:
  Replayer(SpanRecorder* spans, LayerSamples* samples)
      : spans_(spans), samples_(samples) {}

  /// Returns false when the replay disagrees with what the service
  /// returned.
  bool ReplaySession(const catalog::SnapshotPtr& snapshot, const Task& task,
                     const SessionPlan& plan, const SessionRecord& run,
                     const std::vector<int>& key_spans, uint32_t session) {
    if (attrs_engine_ != &snapshot->engine()) {
      attrs_ = IndexedAttributes(snapshot->engine());
      attrs_engine_ = &snapshot->engine();
    }
    core::Session shadow(&snapshot->engine(), &snapshot->graph(),
                         task.columns);
    const catalog::Snapshot* snap = snapshot.get();
    bool service_hit = false;
    int search_span = -1;
    // The replay-side analogue of the service result cache: a search the
    // service answered from its cache is answered from here too, so its
    // spans do not count against a cache-hit keystroke. The first such
    // search per key is computed ahead, under a root the layer sums skip.
    const Keystroke& search = plan.keys[plan.search_key];
    const std::string cache_key =
        task.name + '\x1f' + std::to_string(search.task_row) + '\x1f' +
        std::to_string(snap->epoch()) + '.' +
        std::to_string(snap->minor_epoch());
    if (plan.search_key < run.keys.size() &&
        run.keys[plan.search_key].cache_hit && !cache_.count(cache_key)) {
      core::ExecutionContext ctx;
      const int fill = spans_->Open("bench.replay_fill", -1, session);
      auto filled = Search(*snap, task.rows[search.task_row], shadow.options(),
                           ctx, fill, session, /*record=*/false);
      spans_->Close(fill);
      if (!filled.ok()) return false;
      cache_[cache_key] = std::move(*filled);
    }
    shadow.set_search_fn([&](const std::vector<std::string>& first_row,
                             const core::SearchOptions& options,
                             core::ExecutionContext& ctx)
                             -> Result<core::SearchResult> {
      if (service_hit) return cache_.at(cache_key);
      auto result = Search(*snap, first_row, options, ctx, search_span,
                           session, /*record=*/true);
      if (result.ok()) cache_[cache_key] = *result;
      return result;
    });

    bool agrees = true;
    for (size_t j = 0; j < run.keys.size(); ++j) {
      const Keystroke& key = plan.keys[j];
      const KeyLog& r = run.keys[j];
      const bool is_search = j == plan.search_key;
      const char* name =
          is_search ? "core.search"
                    : (key.grid_row == 0 ? "core.cell" : "core.prune");
      service_hit = is_search && r.cache_hit;
      const int span = spans_->Open(name, key_spans[j], session);
      search_span = span;
      const Status status =
          shadow.Input(key.grid_row, key.col, task.rows[key.task_row][key.col]);
      spans_->Close(span);
      const double input_us = spans_->span(span).us();
      const double client_us = UsBetween(r.sent, r.done);
      if (!service_hit) samples_->overhead_us.push_back(client_us - input_us);
      if (key.grid_row > 0) samples_->prune_us.push_back(input_us);
      if (!status.ok() || shadow.state() != r.state ||
          shadow.candidates().size() != r.num_candidates) {
        agrees = false;
      }
    }
    return agrees;
  }

 private:
  Result<core::SearchResult> Search(const catalog::Snapshot& snap,
                                    const std::vector<std::string>& first_row,
                                    const core::SearchOptions& options,
                                    core::ExecutionContext& ctx, int parent,
                                    uint32_t session, bool record) {
    const text::FullTextEngine& engine = snap.engine();
    SearchCounts counts;
    core::SearchResult result;
    const uint64_t allocs_before = HeapAllocations();

    // The locate stage exactly as SampleSearch runs it, so the replay
    // copy's probe memo sees the service's probe sequence. Build is one
    // FindOccurrences (a MatchingRows per attribute) per sample; its time
    // counts as the text layer's, per logical probe.
    int span = spans_->Open("core.locate", parent, session);
    const int probes = spans_->Open("text.probes", span, session);
    const uint64_t counted_before = ctx.probe_counters().Snapshot().probes;
    core::LocationMap locations =
        core::LocationMap::Build(engine, first_row, &ctx, 1);
    const uint64_t counted =
        ctx.probe_counters().Snapshot().probes - counted_before;
    spans_->Close(probes);
    spans_->Close(span);
    const uint64_t logical = LogicalProbes(engine, first_row);
    if (record && logical > 0) {
      samples_->probe_us.push_back(
          spans_->span(probes).us() / static_cast<double>(logical));
      samples_->probe_calls += logical;
      samples_->counted_probes += counted;
      for (const std::string& sample : first_row) {
        for (const text::AttributeRef& attr : attrs_) {
          if (sample.empty() || samples_->probes.size() >= kMaxProbeRecords) {
            break;
          }
          samples_->probes.push_back(ProbeRecord{attr, sample});
        }
      }
    }
    counts.locate_ms = spans_->span(span).us() / 1000.0;
    result.stats.num_occurrences = locations.TotalOccurrences();

    span = spans_->Open("core.pairwise_gen", parent, session);
    core::PairwiseMappingMap pmpm = core::GeneratePairwiseMappingPaths(
        snap.graph(), locations, options, ctx);
    spans_->Close(span);
    counts.pairwise_gen_ms = spans_->span(span).us() / 1000.0;
    for (const auto& [pair, mappings] : pmpm) {
      counts.pairwise_mappings += mappings.size();
    }

    span = spans_->Open("core.pairwise_exec", parent, session);
    query::PathExecutor executor(&engine);
    auto ptpm = core::CreatePairwiseTuplePaths(executor, pmpm, locations,
                                               options, ctx,
                                               &result.stats.pairwise);
    spans_->Close(span);
    if (!ptpm.ok()) return ptpm.status();
    counts.pairwise_exec_ms = spans_->span(span).us() / 1000.0;
    counts.path_queries = result.stats.pairwise.num_mappings;
    counts.query_tuple_paths = result.stats.pairwise.num_tuple_paths;

    span = spans_->Open("core.weave", parent, session);
    std::vector<core::TuplePath> complete = core::GenerateCompleteTuplePaths(
        *ptpm, static_cast<int>(first_row.size()), options, ctx,
        &result.stats.weave);
    spans_->Close(span);
    counts.weave_ms = spans_->span(span).us() / 1000.0;
    result.stats.num_complete_tuple_paths = complete.size();

    span = spans_->Open("core.rank", parent, session);
    result.candidates = core::RankMappings(complete, options, &ctx);
    spans_->Close(span);
    counts.rank_ms = spans_->span(span).us() / 1000.0;
    result.stats.num_valid_mappings = result.candidates.size();
    result.stats.truncated = result.stats.pairwise.truncated ||
                             result.stats.weave.truncated ||
                             ctx.stop_requested();

    counts.allocs = HeapAllocations() - allocs_before;
    counts.complete_paths = complete.size();
    counts.valid_mappings = result.candidates.size();
    counts.truncated = result.stats.truncated;
    if (record) samples_->searches.push_back(counts);
    return result;
  }

  static constexpr size_t kMaxProbeRecords = 6000;

  SpanRecorder* const spans_;
  LayerSamples* const samples_;
  std::vector<text::AttributeRef> attrs_;
  const text::FullTextEngine* attrs_engine_ = nullptr;
  /// Replay-side analogue of the service result cache, keyed by first row
  /// and snapshot.
  std::map<std::string, core::SearchResult> cache_;
};

// The same probes on a memo-less 8-shard engine over ÷ a memo-less 1-shard
// engine over the same rows (best of three passes each).
double ShardOverheadRatio(const storage::Database& db,
                          const text::MatchPolicy& policy,
                          const std::vector<ProbeRecord>& probes) {
  if (probes.empty()) return 0.0;
  text::EngineOptions options;
  options.probe_cache_bytes = 0;
  const text::FullTextEngine single(&db, policy, options);
  const text::ShardedTextEngine sharded(&db, policy, 8, options);
  const auto time_probes = [&](const text::FullTextEngine& engine) {
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const Clock::time_point start = Clock::now();
      for (const ProbeRecord& p : probes) {
        text::RowSet rows = engine.MatchingRows(p.attr, p.sample);
        (void)rows;
      }
      const double us = UsBetween(start, Clock::now());
      best = pass == 0 ? us : std::min(best, us);
    }
    return best;
  };
  const double one = time_probes(single);
  return Ratio(time_probes(sharded), one);
}

// ---------------------------------------------------------------- passes --

struct PassResult {
  double wall_us = 0.0;  // the round's wall time: sessions and writer steps
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> errors;
};

// Runs the first `count` plans with one session in flight (and, on
// the churn workloads, the writer applying each batch before the next session
// starts) on a freshly published copy of the tenant. With `spans`, records
// the keystrokes, builds pass B's spans from them, and replays every
// session and writer step on `replay_catalog`.
PassResult RunPass(const WorkloadConfig& config, Environment* env,
                   size_t count, SpanRecorder* spans,
                   catalog::Catalog* replay_catalog, LayerSamples* samples) {
  PassResult pass;
  std::unique_ptr<catalog::Catalog> serving =
      PublishCopy(env->source, config.shards);
  service::ServiceOptions service_options;
  service_options.num_workers = config.workers;
  service_options.search_parallelism = 1;
  RoundResult round;
  service::MetricsSnapshot before, after;
  {
    service::MappingService service(serving.get(), service_options);
    LoadGenerator load(&service, env, config);
    if (config.kind == WorkloadKind::kHotSessions) {
      // Warm the result cache, as the untraced run does.
      RoundOptions warm;
      warm.in_flight = config.in_flight;
      RoundResult warmed = load.RunRound(warm);
      pass.attempted += warmed.requests;
      pass.failed += warmed.requests_failed;
    }
    before = service.SnapshotMetrics();
    RoundOptions options;
    options.in_flight = 1;
    options.plans = count;
    options.writer = config.kind == WorkloadKind::kChurn;
    options.serial_writer = true;
    options.record_keys = spans != nullptr;
    round = load.RunRound(options);
    after = service.SnapshotMetrics();
  }  // the service's workers are joined here
  pass.wall_us = round.wall_s * 1e6;
  pass.attempted += round.requests;
  pass.failed += round.requests_failed;
  for (const SessionRecord& s : round.sessions) pass.wrong += s.wrong ? 1 : 0;
  pass.errors = round.errors;
  if (spans == nullptr) return pass;

  samples->requests += after.TotalRequests() - before.TotalRequests();
  samples->shed += after.requests_overloaded - before.requests_overloaded;

  if (config.kind == WorkloadKind::kHotSessions) {
    // The replay copy gets the same warm-up, so its probe memo starts where
    // the serving copy's did.
    service::MappingService warm_service(replay_catalog, service_options);
    LoadGenerator warm(&warm_service, env, config);
    RoundOptions warm_options;
    warm_options.in_flight = config.in_flight;
    (void)warm.RunRound(warm_options);
  }
  catalog::TenantWriter replay_writer(replay_catalog);
  OwnedRows replay_owned;
  bool replay_variant = false;
  Replayer replayer(spans, samples);
  size_t next_step = 0;
  const size_t k = config.sessions_per_update;
  for (size_t i = 0; i < round.sessions.size(); ++i) {
    const SessionRecord& run = round.sessions[i];
    const SessionPlan& plan = env->plans[i];
    const Task& task = env->tasks[plan.task];
    const auto sid = static_cast<uint32_t>(i + 1);
    const int root = spans->Add("session", -1, sid, run.created, run.end);
    const int create = spans->Add("service.create_session", root, sid,
                                  run.created, run.start);
    samples->create_us.push_back(UsBetween(run.created, run.start));
    std::vector<int> key_spans;
    for (size_t j = 0; j < run.keys.size(); ++j) {
      const KeyLog& key = run.keys[j];
      const int ks =
          spans->Add("service.keystroke", root, sid, key.sent, key.done);
      spans->Add("service.admit", ks, sid, key.sent,
                 std::min(key.admitted, key.done));
      key_spans.push_back(ks);
      samples->admit_us.push_back(UsBetween(key.sent, key.admitted));
      const double us = UsBetween(key.sent, key.done);
      if (j != plan.search_key) {
        samples->keystroke_us.push_back(us);
        continue;
      }
      ++samples->search_keys;
      if (key.cache_hit) {
        ++samples->search_hits;
        samples->cache_hit_us.push_back(us);
      } else {
        samples->service_probes.Add(run.search_probes);
        ++samples->service_searches;
      }
    }
    samples->samples += run.keys.size();
    ++samples->sessions;

    const Clock::time_point pin_start = Clock::now();
    auto pinned = replay_catalog->Pin(kTenant);
    const Clock::time_point pin_end = Clock::now();
    spans->Add("catalog.pin", create, sid, pin_start, pin_end);
    samples->pin_us.push_back(UsBetween(pin_start, pin_end));
    MW_CHECK(pinned.ok());
    if (run.outcome != SessionEnd::kFailed &&
        !replayer.ReplaySession(*pinned, task, plan, run, key_spans, sid)) {
      ++pass.wrong;
      pass.errors.push_back("session " + std::to_string(i) +
                            ": the layer replay disagrees with the service");
    }

    // Writer steps due after this session, replayed on the replay copy.
    while (k > 0 && next_step < round.updates.size() &&
           (round.updates[next_step].batch + 1) * k == i + 1) {
      const UpdateRecord& step = round.updates[next_step++];
      if (step.publish) {
        spans->Add("catalog.publish", -1, 0, step.start, step.end);
        samples->publish_ms.push_back(MsBetween(step.start, step.end));
        ++samples->publishes;
        samples->shards_rebuilt += step.shards_rebuilt;
        replay_variant = !replay_variant;  // keep the copy on the same rows
        MW_CHECK(Republish(replay_catalog, env->source, replay_variant));
        replay_owned.clear();
        continue;
      }
      const int update =
          spans->Add("service.update", -1, 0, step.start, step.end);
      const catalog::UpdateBatch batch =
          WriterBatch(*env, step.batch, replay_owned);
      const int apply = spans->Open("catalog.apply", update, 0);
      auto applied = replay_writer.Apply(kTenant, batch);
      spans->Close(apply);
      ++samples->updates;
      if (!applied.ok()) {
        if (applied.status().code() == StatusCode::kFailedPrecondition) {
          ++samples->conflicts;
        }
        ++pass.wrong;
        pass.errors.push_back("replayed update: " +
                              applied.status().ToString());
        continue;
      }
      samples->apply_ms.push_back(spans->span(apply).us() / 1000.0);
      samples->shards_touched += applied->shards_touched;
      replay_owned = InsertedRows(batch, applied->inserted_rows);
    }
  }
  return pass;
}

}  // namespace

int RunTraced(const WorkloadConfig& config, const TracedOptions& options) {
  std::vector<double> datagen_s, publish_s, inputs_s;
  Environment env;
  for (size_t i = 0; i < options.setups; ++i) {
    { Environment previous = std::move(env); }
    env = BuildEnvironment(config, options.seed);
    datagen_s.push_back(env.times.datagen_s);
    publish_s.push_back(env.times.publish_s);
    inputs_s.push_back(env.times.inputs_s);
  }
  env.catalog.reset();  // each pass publishes its own copy
  const size_t count = std::min(options.sessions, env.plans.size());
  std::printf("traced %s seed %llu: %zu sessions per pass, %u shard(s), "
              "inputs %016llx\n",
              config.name.c_str(),
              static_cast<unsigned long long>(options.seed),
              count, config.shards,
              static_cast<unsigned long long>(env.input_fingerprint));

  // Pass A: untraced reference.
  const PassResult a =
      RunPass(config, &env, count, nullptr, nullptr, nullptr);

  // Pass B: traced, with the layer replay on a second copy of the tenant.
  std::unique_ptr<catalog::Catalog> replay =
      PublishCopy(env.source, config.shards);
  const Clock::time_point origin = Clock::now();
  SpanRecorder spans;
  LayerSamples samples;
  const PassResult b = RunPass(config, &env, count, &spans, replay.get(),
                               &samples);

  auto pinned = replay->Pin(kTenant);
  MW_CHECK(pinned.ok());
  const double shard_overhead = ShardOverheadRatio(
      (*pinned)->db(), replay->options().match_policy, samples.probes);
  const double index_mb =
      static_cast<double>((*pinned)->index_bytes()) / (1024.0 * 1024.0);

  // Self time per layer over pass B's roots (replay-fill roots excluded).
  const std::vector<double> self = spans.SelfUs();
  std::map<std::string, double> layer_us;
  std::vector<bool> counted(spans.spans().size(), false);
  double roots_us = 0.0;
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    const bool excluded_root =
        s.parent < 0 && std::string(s.name) == "bench.replay_fill";
    counted[i] = s.parent < 0 ? !excluded_root
                              : counted[static_cast<size_t>(s.parent)];
    if (!counted[i]) continue;
    if (s.parent < 0) roots_us += s.us();
    layer_us[LayerOf(s.name)] += std::max(0.0, self[i]);
  }
  double layer_sum_us = 0.0;
  std::printf("self time per layer over %.1f ms of traced sessions:\n",
              roots_us / 1000.0);
  for (const auto& [layer, us] : layer_us) {
    std::printf("  %-8s %10.2f ms  %5.1f%%\n", layer.c_str(), us / 1000.0,
                100.0 * Ratio(us, roots_us));
    layer_sum_us += us;
  }

  std::vector<double> locate, gen, exec, weave, rank;
  double allocs = 0, complete = 0, valid = 0, pairwise = 0, queries = 0;
  double query_paths = 0;
  double truncated = 0;
  for (const SearchCounts& c : samples.searches) {
    locate.push_back(c.locate_ms);
    gen.push_back(c.pairwise_gen_ms);
    exec.push_back(c.pairwise_exec_ms);
    weave.push_back(c.weave_ms);
    rank.push_back(c.rank_ms);
    allocs += static_cast<double>(c.allocs);
    complete += static_cast<double>(c.complete_paths);
    valid += static_cast<double>(c.valid_mappings);
    pairwise += static_cast<double>(c.pairwise_mappings);
    queries += static_cast<double>(c.path_queries);
    query_paths += static_cast<double>(c.query_tuple_paths);
    truncated += c.truncated ? 1 : 0;
  }
  const double searches = static_cast<double>(samples.searches.size());
  const text::ProbeStats& sp = samples.service_probes;
  const double service_searches = static_cast<double>(samples.service_searches);
  const double kernel_merges =
      static_cast<double>(sp.kernel_array_array + sp.kernel_array_bitmap +
                          sp.kernel_bitmap_bitmap + sp.kernel_scalar_fallback);

  MetricList m;
  m.Add("service.keystroke_us_p50", Quantile(samples.keystroke_us, 0.5), "us");
  m.Add("service.keystroke_us_p99", Quantile(samples.keystroke_us, 0.99), "us");
  m.Add("service.cache_hit_us_p50", Quantile(samples.cache_hit_us, 0.5), "us");
  m.Add("service.overhead_us_p50", Quantile(samples.overhead_us, 0.5), "us");
  m.Add("service.admit_us_p50", Quantile(samples.admit_us, 0.5), "us");
  m.Add("service.create_session_us_p50", Quantile(samples.create_us, 0.5),
        "us");
  m.Add("service.cache_hit_ratio",
        Ratio(static_cast<double>(samples.search_hits),
              static_cast<double>(samples.search_keys)),
        "ratio");
  m.Add("service.shed_ratio",
        Ratio(static_cast<double>(samples.shed),
              static_cast<double>(samples.requests)),
        "ratio");
  m.Add("core.locate_ms_p50", Quantile(locate, 0.5), "ms");
  m.Add("core.pairwise_gen_ms_p50", Quantile(gen, 0.5), "ms");
  m.Add("core.pairwise_exec_ms_p50", Quantile(exec, 0.5), "ms");
  m.Add("core.weave_ms_p50", Quantile(weave, 0.5), "ms");
  m.Add("core.weave_ms_p99", Quantile(weave, 0.99), "ms");
  m.Add("core.rank_ms_p50", Quantile(rank, 0.5), "ms");
  m.Add("core.prune_us_p50", Quantile(samples.prune_us, 0.5), "us");
  m.Add("core.prune_us_p99", Quantile(samples.prune_us, 0.99), "us");
  m.Add("core.allocs_per_search", Ratio(allocs, searches), "count");
  m.Add("core.complete_tuple_paths_per_search", Ratio(complete, searches),
        "count");
  m.Add("core.valid_per_complete", Ratio(valid, complete), "ratio");
  m.Add("core.truncated_ratio", Ratio(truncated, searches), "ratio");
  m.Add("core.samples_per_session",
        Ratio(static_cast<double>(samples.samples),
              static_cast<double>(samples.sessions)),
        "count");
  m.Add("text.probe_us_p50", Quantile(samples.probe_us, 0.5), "us");
  m.Add("text.probe_us_p99", Quantile(samples.probe_us, 0.99), "us");
  m.Add("text.probes_per_search",
        Ratio(static_cast<double>(sp.probes), service_searches), "count");
  m.Add("text.memo_hit_ratio",
        Ratio(static_cast<double>(sp.memo_hits),
              static_cast<double>(sp.probes)),
        "ratio");
  m.Add("text.candidates_per_probe",
        Ratio(static_cast<double>(sp.candidates_examined),
              static_cast<double>(sp.probes)),
        "count");
  m.Add("text.kernel_merges_per_search", Ratio(kernel_merges, service_searches),
        "count");
  m.Add("text.shard_subprobes_per_probe",
        Ratio(static_cast<double>(samples.counted_probes) -
                  static_cast<double>(samples.probe_calls),
              static_cast<double>(samples.probe_calls)),
        "count");
  m.Add("text.shard_overhead_ratio", shard_overhead, "ratio");
  m.Add("text.index_mb", index_mb, "MB");
  m.Add("query.path_queries_per_search", Ratio(queries, searches), "count");
  m.Add("query.tuple_paths_per_query", Ratio(query_paths, queries), "count");
  m.Add("graph.pairwise_mappings_per_search", Ratio(pairwise, searches),
        "count");
  m.Add("catalog.pin_us_p50", Quantile(samples.pin_us, 0.5), "us");
  m.Add("catalog.apply_ms_p50", Quantile(samples.apply_ms, 0.5), "ms");
  m.Add("catalog.apply_ms_p99", Quantile(samples.apply_ms, 0.99), "ms");
  m.Add("catalog.shards_touched_per_update",
        Ratio(static_cast<double>(samples.shards_touched),
              static_cast<double>(samples.updates)),
        "count");
  m.Add("catalog.publish_ms_p50", Quantile(samples.publish_ms, 0.5), "ms");
  m.Add("catalog.shards_rebuilt_per_publish",
        Ratio(static_cast<double>(samples.shards_rebuilt),
              static_cast<double>(samples.publishes)),
        "count");
  m.Add("catalog.update_conflict_ratio",
        Ratio(static_cast<double>(samples.conflicts),
              static_cast<double>(samples.updates)),
        "ratio");
  m.Add("setup.datagen_s", Median(datagen_s), "s");
  m.Add("setup.publish_s", Median(publish_s), "s");
  m.Add("setup.inputs_s", Median(inputs_s), "s");
  m.Add("bench.layer_sum_ratio", Ratio(layer_sum_us, roots_us), "ratio");
  m.Add("bench.trace_overhead_ratio", Ratio(b.wall_us, a.wall_us) - 1.0,
        "ratio");

  std::printf("pass A (untraced) %.1f ms, pass B (traced) %.1f ms, %zu spans, "
              "%zu replayed searches, %llu replayed probes\n",
              a.wall_us / 1000.0, b.wall_us / 1000.0, spans.spans().size(),
              samples.searches.size(),
              static_cast<unsigned long long>(samples.probe_calls));
  for (const Metric& metric : m.metrics()) {
    std::printf("  %-40s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!options.spans_out.empty() &&
      !spans.WriteChromeTrace(options.spans_out, origin)) {
    std::printf("ERROR: could not write %s\n", options.spans_out.c_str());
  }
  std::vector<std::string> errors = a.errors;
  errors.insert(errors.end(), b.errors.begin(), b.errors.end());
  for (size_t i = 0; i < errors.size() && i < 8; ++i) {
    std::printf("ERROR: %s\n", errors[i].c_str());
  }
  // A failed, shed or truncated request fails the run like a wrong answer.
  const bool correct =
      a.wrong == 0 && b.wrong == 0 && a.failed == 0 && b.failed == 0;
  PrintResult(correct, a.attempted + b.attempted, a.failed + b.failed, m);
  return correct ? 0 : 1;
}

}  // namespace mweaver::perfbench
