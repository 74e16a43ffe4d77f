// Tests for the phased workload harness (src/workload/): scenario parsing
// (including every diagnostic the checked-in scenarios rely on), the
// latency aggregator, the in-tree JSON writer/parser, baseline gating, and
// — the part that needs a live service — deterministic count-bounded runs
// with failpoint-forced degraded/overloaded outcomes landing in the right
// buckets.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "datagen/movie_gen.h"
#include "graph/schema_graph.h"
#include "service/mapping_service.h"
#include "storage/database.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "workload/baseline.h"
#include "workload/event_recorder.h"
#include "common/json_util.h"
#include "workload/runner.h"
#include "workload/scenario_parser.h"

namespace mweaver::workload {
namespace {

using service::RequestOutcome;

// ------------------------------ parser ------------------------------------

constexpr char kMinimalScenario[] = R"(# minimal
name: mini
seed: 9

[phase only]
iterations: 2
actors: searcher=1
)";

TEST(ScenarioParserTest, ParsesMinimalScenario) {
  auto parsed = ScenarioParser::Parse(kMinimalScenario);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Scenario& s = *parsed;
  EXPECT_EQ(s.name, "mini");
  EXPECT_EQ(s.seed, 9u);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].name, "only");
  EXPECT_EQ(s.phases[0].iterations, 2u);
  EXPECT_EQ(s.phases[0].duration.count(), 0);
  EXPECT_EQ(s.phases[0].ActorCount(ActorType::kSearcher), 1u);
  EXPECT_EQ(s.phases[0].TotalActors(), 1u);
}

TEST(ScenarioParserTest, ParsesAllKnobs) {
  auto parsed = ScenarioParser::Parse(R"(name: full
seed: 7
movies: 50
workers: 3
queue: 16
cache: 32
script_rows: 5

[phase spike]
duration_ms: 250
arrival: open
rate_per_sec: 123.5
deadline_ms: 20
actors: searcher=2 pruner=1 bulk_loader=3 cache_buster=4
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Scenario& s = *parsed;
  EXPECT_EQ(s.movies, 50u);
  EXPECT_EQ(s.workers, 3u);
  EXPECT_EQ(s.queue_depth, 16u);
  EXPECT_EQ(s.cache_capacity, 32u);
  EXPECT_EQ(s.max_script_rows, 5u);
  ASSERT_EQ(s.phases.size(), 1u);
  const PhaseSpec& p = s.phases[0];
  EXPECT_EQ(p.arrival, ArrivalModel::kOpen);
  EXPECT_DOUBLE_EQ(p.rate_per_sec, 123.5);
  EXPECT_EQ(p.duration.count(), 250);
  EXPECT_EQ(p.request_deadline.count(), 20);
  EXPECT_EQ(p.ActorCount(ActorType::kBulkLoader), 3u);
  EXPECT_EQ(p.ActorCount(ActorType::kCacheBuster), 4u);
  EXPECT_EQ(p.TotalActors(), 10u);
}

// Every diagnostic must be InvalidArgument and carry the 1-based line
// number, so a broken checked-in scenario points at itself.
void ExpectParseError(std::string_view text, const std::string& line_tag,
                      const std::string& fragment) {
  auto parsed = ScenarioParser::Parse(text);
  ASSERT_FALSE(parsed.ok()) << "expected failure: " << fragment;
  EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find(line_tag), std::string::npos) << message;
  EXPECT_NE(message.find(fragment), std::string::npos) << message;
}

TEST(ScenarioParserTest, UnknownActorTypeReportsLine) {
  ExpectParseError(
      "name: x\n\n[phase p]\niterations: 1\nactors: frobber=2\n",
      "line 5", "unknown actor type");
}

TEST(ScenarioParserTest, ZeroDurationPhaseReportsLine) {
  // Neither duration_ms nor iterations: the phase would never run.
  ExpectParseError("name: x\n\n[phase p]\nactors: searcher=1\n", "line 3",
                   "duration_ms > 0 or iterations > 0");
}

TEST(ScenarioParserTest, ExplicitZeroDurationReportsLine) {
  // duration_ms: 0 means "unset": the phase still has no bound.
  ExpectParseError(
      "name: x\n\n[phase p]\nduration_ms: 0\nactors: searcher=1\n",
      "line 3", "duration_ms > 0");
}

TEST(ScenarioParserTest, NegativeRateReportsLine) {
  ExpectParseError(
      "name: x\n\n[phase p]\nduration_ms: 10\narrival: open\n"
      "rate_per_sec: -3\nactors: searcher=1\n",
      "line 6", "rate_per_sec");
}

TEST(ScenarioParserTest, OpenArrivalNeedsRate) {
  ExpectParseError(
      "name: x\n\n[phase p]\nduration_ms: 10\narrival: open\n"
      "actors: searcher=1\n",
      "line 3", "rate_per_sec");
}

TEST(ScenarioParserTest, DurationAndIterationsAreExclusive) {
  ExpectParseError(
      "name: x\n\n[phase p]\nduration_ms: 10\niterations: 5\n"
      "actors: searcher=1\n",
      "line 3", "both duration_ms and iterations");
}

TEST(ScenarioParserTest, PhaseWithoutActorsReportsLine) {
  ExpectParseError("name: x\n\n[phase p]\nduration_ms: 10\n", "line 3",
                   "actor");
}

TEST(ScenarioParserTest, DuplicatePhaseNameReportsLine) {
  ExpectParseError(
      "name: x\n\n[phase p]\niterations: 1\nactors: searcher=1\n\n"
      "[phase p]\niterations: 1\nactors: searcher=1\n",
      "line 7", "duplicate");
}

TEST(ScenarioParserTest, UnknownKeyReportsLine) {
  ExpectParseError("name: x\nbogus_knob: 3\n", "line 2", "unknown");
}

TEST(ScenarioParserTest, MissingNameFails) {
  auto parsed =
      ScenarioParser::Parse("[phase p]\niterations: 1\nactors: searcher=1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

TEST(ScenarioParserTest, NoPhasesFails) {
  auto parsed = ScenarioParser::Parse("name: empty\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

// The shipped scenarios must stay parseable — they are the public
// surface of the harness (and the CI smoke gate reads smoke.scenario).
TEST(ScenarioParserTest, ShippedScenariosRoundTrip) {
  const std::string dir = MWEAVER_SCENARIO_DIR;
  struct Expected {
    const char* file;
    const char* name;
    size_t phases;
  };
  for (const Expected& e :
       {Expected{"/smoke.scenario", "smoke", 3},
        Expected{"/soak.scenario", "soak", 3},
        Expected{"/overload-spike.scenario", "overload-spike", 3},
        Expected{"/multi-tenant.scenario", "multi-tenant", 3},
        Expected{"/streaming.scenario", "streaming", 3}}) {
    auto parsed = ScenarioParser::ParseFile(dir + e.file);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->name, e.name);
    EXPECT_EQ(parsed->phases.size(), e.phases);
    // Config invariants the runner depends on.
    EXPECT_GT(parsed->movies, 0u);
    EXPECT_GT(parsed->workers, 0u);
    for (const PhaseSpec& phase : parsed->phases) {
      EXPECT_GT(phase.TotalActors(), 0u);
      EXPECT_TRUE(phase.duration.count() > 0 || phase.iterations > 0);
      if (phase.arrival == ArrivalModel::kOpen) {
        EXPECT_GT(phase.rate_per_sec, 0.0);
      }
    }
  }
  // The smoke scenario is the CI gate for interactive traffic: it must
  // exercise every session-based actor type so the baseline covers each
  // traffic shape. Updaters have their own gate (streaming.scenario).
  auto smoke = ScenarioParser::ParseFile(dir + "/smoke.scenario");
  ASSERT_TRUE(smoke.ok());
  auto max_counts = smoke->MaxActorCounts();
  for (size_t t = 0; t < kNumActorTypes; ++t) {
    if (static_cast<ActorType>(t) == ActorType::kUpdater) continue;
    EXPECT_GT(max_counts[t], 0u)
        << "smoke.scenario never runs actor type "
        << ActorTypeName(static_cast<ActorType>(t));
  }
  // The streaming scenario is the update path's CI gate: updaters must
  // churn minor epochs while searchers read across them.
  auto streaming = ScenarioParser::ParseFile(dir + "/streaming.scenario");
  ASSERT_TRUE(streaming.ok());
  EXPECT_GT(
      streaming->MaxActorCounts()[static_cast<size_t>(ActorType::kUpdater)],
      0u);
  EXPECT_GT(
      streaming->MaxActorCounts()[static_cast<size_t>(ActorType::kSearcher)],
      0u);
  // The multi-tenant scenario is the catalog's CI gate: several tenants
  // plus publish churn, with bulk loaders present to drive the churn.
  auto mt = ScenarioParser::ParseFile(dir + "/multi-tenant.scenario");
  ASSERT_TRUE(mt.ok());
  EXPECT_GT(mt->tenants, 1u);
  EXPECT_TRUE(mt->publish_churn);
  EXPECT_GT(mt->MaxActorCounts()[static_cast<size_t>(
                ActorType::kBulkLoader)],
            0u);
}

// --------------------------- aggregator ------------------------------------

TEST(EventRecorderTest, AggregatesByPhaseAndType) {
  std::vector<EventRecorder> recorders;
  recorders.emplace_back(/*num_phases=*/2, ActorType::kSearcher);
  recorders.emplace_back(/*num_phases=*/2, ActorType::kSearcher);
  recorders.emplace_back(/*num_phases=*/2, ActorType::kPruner);

  recorders[0].Record(0, RequestOutcome::kOk, 1.0);
  recorders[0].Record(0, RequestOutcome::kDegraded, 2.0);
  recorders[1].Record(0, RequestOutcome::kOk, 3.0);
  recorders[1].RecordOverloadRetry(0);
  recorders[2].Record(0, RequestOutcome::kTruncated, 4.0);
  recorders[2].Record(1, RequestOutcome::kOk, 5.0);
  recorders[2].RecordSessionFailure(1);

  const std::vector<PhaseStats> phases = AggregateRecorders(recorders, 2);
  ASSERT_EQ(phases.size(), 2u);

  const CellStats& searchers0 =
      phases[0].by_actor[static_cast<size_t>(ActorType::kSearcher)];
  EXPECT_EQ(searchers0.outcomes.ok, 2u);
  EXPECT_EQ(searchers0.outcomes.degraded, 1u);
  EXPECT_EQ(searchers0.overload_retries, 1u);
  EXPECT_EQ(searchers0.latency.count(), 3u);

  const CellStats& pruners0 =
      phases[0].by_actor[static_cast<size_t>(ActorType::kPruner)];
  EXPECT_EQ(pruners0.outcomes.timeout, 1u);  // truncated -> timeout bucket

  EXPECT_EQ(phases[0].total.outcomes.Total(), 4u);
  EXPECT_EQ(phases[1].total.outcomes.Total(), 1u);
  EXPECT_EQ(phases[1].total.session_failures, 1u);
  EXPECT_DOUBLE_EQ(phases[1].total.latency.max_ms(), 5.0);
}

TEST(EventRecorderTest, OverloadedRecordsNoLatencySample) {
  EventRecorder recorder(1, ActorType::kSearcher);
  recorder.Record(0, RequestOutcome::kOverloaded, 123.0);
  EXPECT_EQ(recorder.phase_stats(0).outcomes.overloaded, 1u);
  // A shed request never ran: its latency would poison the percentiles.
  EXPECT_EQ(recorder.phase_stats(0).latency.count(), 0u);
}

// ------------------------------ JSON ---------------------------------------

TEST(JsonTest, WriterEmitsOrderedDocument) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("name", "smo\"ke\n");  // const char*: must emit a string,
                                   // not the bool overload
  writer.KV("count", uint64_t{3});
  writer.KV("ratio", 0.5);
  writer.KV("flag", true);
  writer.Key("items").BeginArray();
  writer.UInt(1).UInt(2);
  writer.EndArray();
  writer.Key("nested").BeginObject().KV("x", 1.5).EndObject();
  writer.EndObject();
  EXPECT_EQ(writer.Finish(),
            "{\"name\":\"smo\\\"ke\\n\",\"count\":3,\"ratio\":0.5,"
            "\"flag\":true,\"items\":[1,2],\"nested\":{\"x\":1.5}}");
}

TEST(JsonTest, ParserRoundTripsWriterOutput) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("s", "héllo \\ world");
  writer.KV("n", 2.25);
  writer.Key("a").BeginArray().Number(1.0).String("two").EndArray();
  writer.EndObject();
  auto parsed = ParseJson(writer.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->StringOr("s", ""), "héllo \\ world");
  EXPECT_DOUBLE_EQ(parsed->NumberOr("n", 0.0), 2.25);
  const JsonValue* array = parsed->Find("a");
  ASSERT_NE(array, nullptr);
  ASSERT_TRUE(array->is_array());
  ASSERT_EQ(array->array().size(), 2u);
  EXPECT_DOUBLE_EQ(array->array()[0].number(), 1.0);
  EXPECT_EQ(array->array()[1].string(), "two");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\"}", "{\"a\":}", "[1,]", "{\"a\":1,}", "tru",
        "\"unterminated", "{\"a\":1} trailing"}) {
    auto parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
  }
}

// ---------------------------- baseline -------------------------------------

// A minimal report document with one phase and a configurable p95.
std::string ReportJson(double total_p95, double searcher_p95) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("scenario", "t");
  writer.Key("phases").BeginArray();
  writer.BeginObject();
  writer.KV("name", "p0");
  writer.Key("actors").BeginArray();
  writer.BeginObject();
  writer.KV("type", "searcher");
  writer.Key("latency_ms").BeginObject();
  writer.KV("p95_ms", searcher_p95);
  writer.EndObject();
  writer.EndObject();
  writer.EndArray();
  writer.Key("total").BeginObject();
  writer.Key("latency_ms").BeginObject();
  writer.KV("p95_ms", total_p95);
  writer.EndObject();
  writer.EndObject();
  writer.EndObject();
  writer.EndArray();
  writer.EndObject();
  return writer.Finish();
}

TEST(BaselineTest, IdenticalReportsPass) {
  const std::string report = ReportJson(10.0, 12.0);
  auto comparison = CompareToBaseline(report, report);
  ASSERT_TRUE(comparison.ok()) << comparison.status();
  EXPECT_TRUE(comparison->ok);
  EXPECT_EQ(comparison->entries.size(), 2u);
}

TEST(BaselineTest, RegressionBeyondBandFails) {
  BaselineCheckOptions options;
  options.tolerance = 0.25;
  options.abs_floor_ms = 1.0;
  // allowed = max(100 * 1.25, 100 + 1) = 125; 130 regresses.
  auto comparison = CompareToBaseline(ReportJson(130.0, 100.0),
                                      ReportJson(100.0, 100.0), options);
  ASSERT_TRUE(comparison.ok()) << comparison.status();
  EXPECT_FALSE(comparison->ok);
  size_t regressed = 0;
  for (const BaselineEntry& entry : comparison->entries) {
    if (entry.regressed) {
      ++regressed;
      EXPECT_EQ(entry.cell, "total");
    }
  }
  EXPECT_EQ(regressed, 1u);
}

TEST(BaselineTest, AbsoluteFloorAbsorbsSmallLatencies) {
  BaselineCheckOptions options;
  options.tolerance = 0.25;
  options.abs_floor_ms = 10.0;
  // 0.02 vs 0.01 is +100% relative but far under the 10 ms floor.
  auto comparison = CompareToBaseline(ReportJson(0.02, 0.02),
                                      ReportJson(0.01, 0.01), options);
  ASSERT_TRUE(comparison.ok());
  EXPECT_TRUE(comparison->ok);
}

TEST(BaselineTest, CellMissingFromCurrentFails) {
  // Baseline knows phase p0; current run renamed it — that must fail
  // loudly rather than silently passing an empty comparison.
  auto comparison = CompareToBaseline(
      ReportJson(1.0, 1.0), ReportJson(1.0, 1.0));
  ASSERT_TRUE(comparison.ok());
  std::string renamed = ReportJson(1.0, 1.0);
  const size_t at = renamed.find("\"p0\"");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 4, "\"p1\"");
  auto missing = CompareToBaseline(renamed, ReportJson(1.0, 1.0));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->ok);
}

TEST(BaselineTest, NewCellsInCurrentPass) {
  // The current run has cells the baseline lacks (new actor type): pass —
  // the next baseline refresh picks them up.
  std::string baseline = ReportJson(1.0, 1.0);
  const size_t at = baseline.find("\"type\":\"searcher\"");
  ASSERT_NE(at, std::string::npos);
  baseline.replace(at, std::strlen("\"type\":\"searcher\""),
                   "\"type\":\"missing0\"");
  auto comparison = CompareToBaseline(ReportJson(1.0, 1.0), baseline);
  ASSERT_TRUE(comparison.ok());
  // The renamed baseline cell is reported missing from the current run.
  EXPECT_FALSE(comparison->ok);
  auto reversed = CompareToBaseline(baseline, ReportJson(1.0, 1.0));
  ASSERT_TRUE(reversed.ok());
  // ...but extra current-only cells alone do not fail the gate: the
  // baseline-known cells all pass.
  std::string wider = ReportJson(1.0, 1.0);
  auto extra = CompareToBaseline(wider, wider);
  ASSERT_TRUE(extra.ok());
  EXPECT_TRUE(extra->ok);
}

// --------------------------- live runner -----------------------------------

struct ServiceFixture {
  explicit ServiceFixture(service::ServiceOptions options)
      : service(PublishFigure2(&catalog), options) {
    // One hand-written script over the Figure-2 data: two fully populated
    // (Name, Director) rows. Row 0 fires the sample search.
    ReplayScript script;
    script.column_names = {"Name", "Director"};
    script.rows = {{"Avatar", "James Cameron"},
                   {"Harry Potter", "David Yates"}};
    scripts.push_back(std::move(script));
  }

  static catalog::Catalog* PublishFigure2(catalog::Catalog* cat) {
    cat->Publish(service::kDefaultTenant,
                 ::mweaver::testing::MakeFigure2Db())
        .ValueOrDie();
    return cat;
  }

  catalog::Catalog catalog;
  service::MappingService service;
  std::vector<ReplayScript> scripts;
};

Scenario CountBoundedScenario() {
  Scenario scenario;
  scenario.name = "deterministic";
  scenario.seed = 5;

  PhaseSpec mixed;
  mixed.name = "mixed";
  mixed.iterations = 3;
  mixed.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 2;
  mixed.actor_counts[static_cast<size_t>(ActorType::kPruner)] = 1;
  mixed.actor_counts[static_cast<size_t>(ActorType::kBulkLoader)] = 1;
  mixed.actor_counts[static_cast<size_t>(ActorType::kCacheBuster)] = 1;
  scenario.phases.push_back(mixed);

  PhaseSpec tail;
  tail.name = "tail";
  tail.iterations = 2;
  tail.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 1;
  scenario.phases.push_back(tail);
  return scenario;
}

TEST(ScenarioRunnerTest, CountBoundedPhasesYieldExactRequestCounts) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 64;
  options.cache_capacity = 64;
  ServiceFixture fixture(options);

  // Reference: how many requests one pruner iteration issues (it stops at
  // the row whose input converges the session, so the count depends on
  // the data, not on timing).
  uint64_t pruner_requests_per_iteration = 0;
  {
    Scenario one;
    one.name = "reference";
    one.seed = 5;
    PhaseSpec phase;
    phase.name = "ref";
    phase.iterations = 1;
    phase.actor_counts[static_cast<size_t>(ActorType::kPruner)] = 1;
    one.phases.push_back(phase);
    ScenarioRunner runner(&fixture.service, &fixture.scripts);
    auto report = runner.Run(one);
    ASSERT_TRUE(report.ok()) << report.status();
    pruner_requests_per_iteration =
        report->phases[0]
            .stats.by_actor[static_cast<size_t>(ActorType::kPruner)]
            .outcomes.Total();
    ASSERT_GT(pruner_requests_per_iteration, 0u);
  }

  ScenarioRunner runner(&fixture.service, &fixture.scripts);
  auto report = runner.Run(CountBoundedScenario());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->phases.size(), 2u);

  const PhaseStats& mixed = report->phases[0].stats;
  auto cell = [&](const PhaseStats& stats, ActorType type) -> const CellStats& {
    return stats.by_actor[static_cast<size_t>(type)];
  };
  // The script's first row has 2 cells; the full script has 4.
  // searcher: 2 actors x 3 iterations x 2 first-row cells.
  EXPECT_EQ(cell(mixed, ActorType::kSearcher).outcomes.Total(), 12u);
  // cache_buster: 1 actor x 3 iterations x 2 first-row cells.
  EXPECT_EQ(cell(mixed, ActorType::kCacheBuster).outcomes.Total(), 6u);
  // bulk_loader: 1 actor x 3 iterations x all 4 cells.
  EXPECT_EQ(cell(mixed, ActorType::kBulkLoader).outcomes.Total(), 12u);
  // pruner: 1 actor x 3 iterations x the reference per-iteration count.
  EXPECT_EQ(cell(mixed, ActorType::kPruner).outcomes.Total(),
            3 * pruner_requests_per_iteration);

  // Unthrottled and failpoint-free, every request must be plain ok.
  EXPECT_EQ(mixed.total.outcomes.ok, mixed.total.outcomes.Total());
  EXPECT_EQ(report->TotalFailures(), 0u);

  // Second phase: only the lone searcher runs; everyone else parks.
  const PhaseStats& tail = report->phases[1].stats;
  EXPECT_EQ(cell(tail, ActorType::kSearcher).outcomes.Total(), 4u);
  EXPECT_EQ(cell(tail, ActorType::kPruner).outcomes.Total(), 0u);
  EXPECT_EQ(cell(tail, ActorType::kBulkLoader).outcomes.Total(), 0u);
  EXPECT_EQ(cell(tail, ActorType::kCacheBuster).outcomes.Total(), 0u);

  // The per-interval service view must agree with the harness tally.
  EXPECT_EQ(report->phases[1].service.TotalRequests(),
            tail.total.outcomes.Total());

  // The JSON report round-trips through the in-tree parser and carries
  // the per-phase structure the baseline gate reads.
  auto parsed = ParseJson(report->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->StringOr("scenario", ""), "deterministic");
  const JsonValue* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array().size(), 2u);
  EXPECT_DOUBLE_EQ(
      phases->array()[0].Find("total")->NumberOr("requests", 0.0),
      static_cast<double>(mixed.total.outcomes.Total()));
}

TEST(ScenarioRunnerTest, TransientSearchErrorLandsInDegradedBucket) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // every search takes the failpoint path
  ServiceFixture fixture(options);

  // One searcher, one iteration: exactly one first-row search. The armed
  // transient error fires once; the service absorbs it with its single
  // retry and reports the request kDegraded.
  Scenario scenario;
  scenario.name = "degraded";
  scenario.seed = 5;
  PhaseSpec phase;
  phase.name = "p0";
  phase.iterations = 1;
  phase.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 1;
  scenario.phases.push_back(phase);

  FailpointPolicy policy;
  policy.action = FailAction::kError;  // defaults to kUnavailable
  policy.max_fires = 1;
  ScopedFailpoint transient("service.search.transient", policy);

  ScenarioRunner runner(&fixture.service, &fixture.scripts);
  auto report = runner.Run(scenario);
  ASSERT_TRUE(report.ok()) << report.status();

  const CellStats& searcher =
      report->phases[0]
          .stats.by_actor[static_cast<size_t>(ActorType::kSearcher)];
  EXPECT_EQ(searcher.outcomes.Total(), 2u);  // two first-row cells
  EXPECT_EQ(searcher.outcomes.degraded, 1u);
  EXPECT_EQ(searcher.outcomes.ok, 1u);
  EXPECT_EQ(searcher.outcomes.failed, 0u);
  EXPECT_EQ(report->phases[0].service.requests_degraded, 1u);
  EXPECT_EQ(report->phases[0].service.search_retries, 1u);
}

TEST(ScenarioRunnerTest, ForcedAdmissionRejectionsLandInOverloadedBucket) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  ServiceFixture fixture(options);

  // Open loop: overloaded responses are recorded and the iteration is
  // abandoned (no retry), so each forced rejection is exactly one
  // overloaded outcome.
  Scenario scenario;
  scenario.name = "overloaded";
  scenario.seed = 5;
  PhaseSpec phase;
  phase.name = "p0";
  phase.iterations = 4;
  phase.arrival = ArrivalModel::kOpen;
  phase.rate_per_sec = 2000.0;
  phase.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 1;
  scenario.phases.push_back(phase);

  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  policy.max_fires = 2;
  ScopedFailpoint admit("service.queue.admit", policy);

  ScenarioRunner runner(&fixture.service, &fixture.scripts);
  auto report = runner.Run(scenario);
  ASSERT_TRUE(report.ok()) << report.status();

  const CellStats& searcher =
      report->phases[0]
          .stats.by_actor[static_cast<size_t>(ActorType::kSearcher)];
  // Iterations 0 and 1 are rejected at their first cell and abandoned;
  // iterations 2 and 3 complete both first-row cells.
  EXPECT_EQ(searcher.outcomes.overloaded, 2u);
  EXPECT_EQ(searcher.outcomes.ok, 4u);
  EXPECT_EQ(searcher.outcomes.Total(), 6u);
  EXPECT_EQ(searcher.outcomes.failed, 0u);
  // Shed requests contribute no latency samples.
  EXPECT_EQ(searcher.latency.count(), 4u);
  EXPECT_EQ(report->phases[0].service.requests_overloaded, 2u);
}

TEST(ScenarioRunnerTest, MultiTenantChurnSpreadsLoadAndReportsPerTenant) {
  catalog::Catalog cat;
  const std::vector<std::string> tenant_names{"t0", "t1"};
  for (const std::string& tenant : tenant_names) {
    ASSERT_TRUE(
        cat.Publish(tenant, ::mweaver::testing::MakeFigure2Db()).ok());
  }

  service::ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 64;
  options.cache_capacity = 64;
  service::MappingService service(&cat, options);

  ReplayScript script;
  script.column_names = {"Name", "Director"};
  script.rows = {{"Avatar", "James Cameron"},
                 {"Harry Potter", "David Yates"}};
  std::vector<ReplayScript> scripts{script};

  TenantTopology topology;
  topology.catalog = &cat;
  topology.tenants = tenant_names;
  topology.make_database = []() {
    return ::mweaver::testing::MakeFigure2Db();
  };

  Scenario scenario;
  scenario.name = "mt";
  scenario.seed = 5;
  scenario.tenants = 2;
  scenario.publish_churn = true;
  PhaseSpec phase;
  phase.name = "churn";
  phase.iterations = 3;
  // Two searchers land one per tenant (round-robin); the bulk loader
  // republishes its tenant before every load iteration.
  phase.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 2;
  phase.actor_counts[static_cast<size_t>(ActorType::kBulkLoader)] = 1;
  scenario.phases.push_back(phase);

  ScenarioRunner runner(&service, &scripts, std::move(topology));
  auto report = runner.Run(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->TotalFailures(), 0u);

  // Publish churn really happened: the loader's tenant moved past its
  // first epoch while the catalog still serves both tenants.
  EXPECT_EQ(cat.size(), 2u);
  const uint64_t t0_epoch = *cat.CurrentEpoch("t0");
  const uint64_t t1_epoch = *cat.CurrentEpoch("t1");
  EXPECT_NE(t0_epoch, t1_epoch);

  // Both tenants took traffic and the rollup made it into the report.
  const auto per_tenant = service.PerTenantMetrics();
  ASSERT_TRUE(per_tenant.count("t0"));
  ASSERT_TRUE(per_tenant.count("t1"));
  EXPECT_GT(per_tenant.at("t0").requests_ok, 0u);
  EXPECT_GT(per_tenant.at("t1").requests_ok, 0u);

  auto parsed = ParseJson(report->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(
      parsed->Find("config")->NumberOr("tenants", 0.0), 2.0);
  const JsonValue* rollup = parsed->Find("service_per_tenant");
  ASSERT_NE(rollup, nullptr);
  EXPECT_NE(rollup->Find("t0"), nullptr);
  EXPECT_NE(rollup->Find("t1"), nullptr);
}

// Updater actors copy rows of random relations. Their inserts must keep the
// tenant consistent: no two live rows share a primary key, and every
// foreign key still points at a live row, including after the actors
// delete their oldest rows. The movie schema has both kinds of keyed
// relation: entities keyed by an id, and link tables keyed by a pair of
// foreign keys.
TEST(ScenarioRunnerTest, UpdaterInsertsKeepKeysUniqueAndReferencesLive) {
  catalog::Catalog cat;
  datagen::YahooMoviesConfig config;
  config.num_movies = 30;
  const storage::Database source = datagen::MakeYahooMovies(config);
  ASSERT_TRUE(source.CheckReferentialIntegrity().ok());
  std::vector<size_t> source_rows;
  for (size_t r = 0; r < source.num_relations(); ++r) {
    source_rows.push_back(
        source.relation(static_cast<storage::RelationId>(r)).num_rows());
  }
  ASSERT_TRUE(cat.Publish(service::kDefaultTenant,
                          datagen::MakeYahooMovies(config))
                  .ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::MappingService service(&cat, options);
  ReplayScript script;
  script.column_names = {"Title"};
  script.rows = {{"x"}};
  std::vector<ReplayScript> scripts{script};

  Scenario scenario;
  scenario.name = "updates";
  scenario.seed = 11;
  PhaseSpec phase;
  phase.name = "churn";
  phase.iterations = 120;
  phase.actor_counts[static_cast<size_t>(ActorType::kUpdater)] = 1;
  scenario.phases.push_back(phase);
  ScenarioRunner runner(&service, &scripts);
  auto report = runner.Run(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->TotalFailures(), 0u);
  EXPECT_EQ(report->phases[0].stats.total.outcomes.ok, 120u);

  const catalog::SnapshotPtr live =
      cat.Pin(service::kDefaultTenant).ValueOrDie();
  const storage::Database& db = live->db();
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok())
      << db.CheckReferentialIntegrity();
  size_t inserted_links = 0;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const storage::Relation& rel =
        db.relation(static_cast<storage::RelationId>(r));
    const auto& pk = rel.schema().primary_key();
    std::set<std::vector<storage::Value>> keys;
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      const auto id = static_cast<storage::RowId>(row);
      if (rel.is_deleted(id)) continue;
      std::vector<storage::Value> key;
      for (const storage::AttributeId a : pk) key.push_back(rel.at(id, a));
      EXPECT_TRUE(keys.insert(std::move(key)).second)
          << rel.name() << " row " << row << " repeats a primary key";
      if (row >= source_rows[r] && pk.size() == 2) ++inserted_links;
    }
  }
  // The actor's live backlog includes link rows, so re-linking was
  // exercised, not only fresh entity keys.
  EXPECT_GT(inserted_links, 0u);
}

TEST(ScenarioRunnerTest, MultiTenantScenarioNeedsMatchingTopology) {
  service::ServiceOptions options;
  options.num_workers = 1;
  ServiceFixture fixture(options);

  Scenario scenario;
  scenario.name = "mt";
  scenario.tenants = 2;  // but the runner has no topology
  PhaseSpec phase;
  phase.name = "p0";
  phase.iterations = 1;
  phase.actor_counts[static_cast<size_t>(ActorType::kSearcher)] = 1;
  scenario.phases.push_back(phase);

  ScenarioRunner runner(&fixture.service, &fixture.scripts);
  auto report = runner.Run(scenario);
  EXPECT_TRUE(report.status().IsFailedPrecondition()) << report.status();
}

// ------------------------- service metrics ---------------------------------

TEST(ServiceMetricsJsonTest, SnapshotJsonParsesAndDeltasPerInterval) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  ServiceFixture fixture(options);

  auto created = fixture.service.CreateSession({"Name", "Director"});
  ASSERT_TRUE(created.ok());
  service::InputRequest request;
  request.session_id = *created;
  request.row = 0;
  request.col = 0;
  request.value = "Avatar";
  ASSERT_TRUE(fixture.service.Call(request).status.ok());
  request.col = 1;
  request.value = "James Cameron";
  ASSERT_TRUE(fixture.service.Call(request).status.ok());

  auto parsed = ParseJson(fixture.service.SnapshotMetricsJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->NumberOr("requests_ok", 0.0), 2.0);
  EXPECT_GT(parsed->NumberOr("approx_latency_p99_ms", -1.0), 0.0);
  ASSERT_NE(parsed->Find("stages"), nullptr);

  // Delta between snapshots isolates one interval, histograms included:
  // an interval with no requests reads zero latency, not the run's.
  const service::MetricsSnapshot before = fixture.service.SnapshotMetrics();
  auto idle =
      ParseJson(fixture.service.SnapshotMetrics().Delta(before).ToJson());
  ASSERT_TRUE(idle.ok());
  EXPECT_DOUBLE_EQ(idle->NumberOr("requests_ok", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(idle->NumberOr("approx_latency_p99_ms", -1.0), 0.0);

  request.row = 1;
  request.col = 0;
  request.value = "Harry Potter";
  ASSERT_TRUE(fixture.service.Call(request).status.ok());
  const service::MetricsSnapshot delta =
      fixture.service.SnapshotMetrics().Delta(before);
  EXPECT_EQ(delta.TotalRequests(), 1u);
  EXPECT_EQ(delta.latency.count(), 1u);
}

}  // namespace
}  // namespace mweaver::workload
