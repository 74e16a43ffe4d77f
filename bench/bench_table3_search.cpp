// Table 3: "The Average Search Time for TPW and the Naive Algorithm."
//
// Per task set x target size: wall-clock of the full sample search under
// TPW vs the naive candidate-network algorithm, on the same sample tuples.
// The naive algorithm runs under a candidate-memory budget
// (MWEAVER_NAIVE_BUDGET, default 300000 mapping paths); exceeding it prints
// "-", reproducing the paper's out-of-memory cells at m >= 5.
//
// Paper reference: TPW 0.6-4.7 s everywhere; naive 1.3 s - 734 s at m=3..4
// and "-" (exhausted) beyond. Expected shape: TPW flat-ish in m, naive
// exploding and dying.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "baselines/naive_search.h"
#include "bench_util.h"
#include "common/random.h"
#include "core/execution_context.h"
#include "core/sample_search.h"
#include "kernel_report.h"
#include "common/json_util.h"

// Process-wide heap-allocation counter, to report how much of the tuple-path
// traffic the arena absorbs (each arena allocation would otherwise be one of
// these).
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace mweaver;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE] [--baseline=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  const bench::YahooEnv env;
  const size_t reps = bench::EnvSize("MWEAVER_BENCH_REPS", 20) / 4 + 1;
  const size_t naive_budget =
      bench::EnvSize("MWEAVER_NAIVE_BUDGET", 300'000);
  env.PrintHeader("Table 3: average sample-search time, TPW vs naive (ms)");

  query::PathExecutor executor(&env.engine());
  // One context for every TPW search: the arena is recycled between reps
  // the same way a serving Session recycles it between requests.
  core::ExecutionContext ctx;
  core::ExecutionTrace stage_totals;
  uint64_t total_heap_allocs = 0, total_arena_allocs = 0;
  size_t total_arena_bytes = 0, tpw_searches = 0;
  double tpw_ms_sum = 0.0;
  text::ProbeStats kernel_totals;

  bench::PrintRow("Task Set / Size of ST", {"3", "4", "5", "6"});
  for (size_t s = 0; s < env.task_sets().size(); ++s) {
    const datagen::TaskSet& set = env.task_sets()[s];
    std::vector<std::string> tpw_cells(4, "-");
    std::vector<std::string> naive_cells(4, "-");
    for (const datagen::TaskMapping& task : set.tasks) {
      auto target = executor.EvaluateTarget(task.mapping, 300);
      if (!target.ok() || target->empty()) {
        std::fprintf(stderr, "no target rows for %s\n", task.name.c_str());
        return 1;
      }
      Rng rng(3'000 + s);
      double tpw_total = 0.0, naive_total = 0.0;
      size_t naive_ok = 0;
      bool exhausted = false;
      for (size_t rep = 0; rep < reps; ++rep) {
        const std::vector<std::string>& row = rng.Pick(*target);
        ctx.ResetForSearch();
        const uint64_t heap_before =
            g_heap_allocs.load(std::memory_order_relaxed);
        auto tpw = core::SampleSearch(env.engine(), env.graph(), row, {}, ctx);
        if (!tpw.ok()) {
          std::fprintf(stderr, "TPW failed: %s\n",
                       tpw.status().ToString().c_str());
          return 1;
        }
        tpw_total += tpw->stats.total_ms;
        total_heap_allocs +=
            g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
        const core::ExecutionTrace& trace = tpw->stats.trace;
        for (size_t i = 0; i < core::kNumSearchStages; ++i) {
          stage_totals.stages[i].wall_ms += trace.stages[i].wall_ms;
          stage_totals.stages[i].items += trace.stages[i].items;
        }
        total_arena_allocs += trace.arena_allocations;
        total_arena_bytes += trace.arena_bytes_used;
        ++tpw_searches;
        tpw_ms_sum += tpw->stats.total_ms;
        // ResetForSearch zeroes the context's probe counters, so this
        // snapshot is exactly this search's kernel traffic.
        kernel_totals.Add(ctx.probe_counters().Snapshot());

        baselines::NaiveOptions naive_options;
        naive_options.enumeration.max_candidates = naive_budget;
        baselines::NaiveStats stats;
        auto naive = baselines::NaiveSampleSearch(
            env.engine(), env.graph(), row, naive_options, &stats);
        if (naive.ok()) {
          naive_total += stats.total_ms;
          ++naive_ok;
        } else if (naive.status().IsResourceExhausted()) {
          exhausted = true;
          break;  // it will exhaust for every row of this task
        } else {
          std::fprintf(stderr, "naive failed: %s\n",
                       naive.status().ToString().c_str());
          return 1;
        }
      }
      const size_t column = task.mapping.size() - 3;
      tpw_cells[column] = bench::Fmt(tpw_total / reps, 2);
      naive_cells[column] =
          exhausted || naive_ok == 0 ? std::string("-")
                                     : bench::Fmt(naive_total / naive_ok, 2);
    }
    const std::string base = std::to_string(s + 1);
    bench::PrintRow(base + "  TPW (ms)", tpw_cells);
    bench::PrintRow("   Naive (ms)", naive_cells);
  }
  if (tpw_searches > 0) {
    const double n = static_cast<double>(tpw_searches);
    std::printf("\nTPW per-stage breakdown (avg ms per search, %zu searches):\n",
                tpw_searches);
    for (size_t i = 0; i < core::kNumSearchStages; ++i) {
      const auto stage = static_cast<core::SearchStage>(i);
      std::printf("  %-13s %8.2f ms   %10.1f items\n",
                  core::SearchStageName(stage),
                  stage_totals.stages[i].wall_ms / n,
                  static_cast<double>(stage_totals.stages[i].items) / n);
    }
    const double heap_per = static_cast<double>(total_heap_allocs) / n;
    const double arena_per = static_cast<double>(total_arena_allocs) / n;
    std::printf(
        "allocations per search: %.0f heap (operator new) + %.0f arena "
        "(%.1f KiB tuple-path storage; %.1f%% of allocation traffic "
        "absorbed)\n",
        heap_per, arena_per,
        static_cast<double>(total_arena_bytes) / n / 1024.0,
        100.0 * arena_per / (heap_per + arena_per));
    std::printf("arena steady state: %zu bytes reserved, %llu resets, "
                "0 mallocs after warm-up\n",
                ctx.arena().bytes_reserved(),
                static_cast<unsigned long long>(ctx.arena().num_resets()));
  }
  std::printf(
      "\npaper: TPW 578-4728 ms flat across m; naive 1273-734319 ms at "
      "m=3..4, '-' (memory exhausted) beyond.\n"
      "'-' above means the naive enumeration blew its %zu-candidate "
      "budget.\n",
      naive_budget);

  if (!out_path.empty() || !baseline_path.empty()) {
    // Only the timing is gated for this section: kernel counts go under
    // "kernels" (informational), not the exact-gated "kernel_*" keys.
    JsonWriter section;
    section.BeginObject();
    section.KV("searches", static_cast<uint64_t>(tpw_searches));
    section.KV("tpw_avg_ms",
               tpw_searches > 0
                   ? tpw_ms_sum / static_cast<double>(tpw_searches)
                   : 0.0);
    section.Key("kernels");
    section.BeginObject();
    section.KV("array_array", kernel_totals.kernel_array_array);
    section.KV("array_bitmap", kernel_totals.kernel_array_bitmap);
    section.KV("bitmap_bitmap", kernel_totals.kernel_bitmap_bitmap);
    section.KV("scalar_fallback", kernel_totals.kernel_scalar_fallback);
    section.EndObject();
    section.EndObject();
    const std::string section_json = section.Finish();
    if (!out_path.empty() &&
        !bench::MergeSectionIntoFile(out_path, "table3_search",
                                     section_json)) {
      return 1;
    }
    if (!baseline_path.empty()) {
      const int gate = bench::GateAgainstBaseline(baseline_path,
                                                  "table3_search",
                                                  section_json);
      if (gate != 0) return gate;
    }
  }
  return 0;
}
