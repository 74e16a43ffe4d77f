// ExecutionContext: the per-request runtime state of one sample search.
//
// One context travels through every stage of the TPW pipeline (and the
// baselines) alongside the immutable SearchOptions. It carries:
//
//  * deadline + cooperative cancellation, behind a poll-throttled
//    ShouldStop() that reads the clock at most once per kStopPollStride
//    checks (stages poll in tight loops; a syscall per poll would dominate);
//  * a bump-pointer Arena for tuple-path node storage (the weave stage's
//    millions of short-lived small vectors), recycled between searches;
//  * an optional tuple-path memory budget over that arena;
//  * per-stage trace spans (wall time, item counters, whether the stage
//    observed an early stop), surfaced through SearchStats and the
//    service-layer metrics.
//
// Thread-safety: ShouldStop(), RequestStop() and stop_requested() are safe
// from any thread (cancellation tokens fire from client threads). The arena
// and the trace are single-threaded: a search runs every stage on its
// caller's thread, which alone allocates and opens spans.
#ifndef MWEAVER_CORE_EXECUTION_CONTEXT_H_
#define MWEAVER_CORE_EXECUTION_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory_resource>
#include <string>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "core/options.h"
#include "text/lookup_stats.h"

namespace mweaver::core {

/// \brief The five stages of the TPW pipeline (Section 4.3), plus the
/// interactive refinement path's pruning stage (Section 5), which runs per
/// keystroke after the first-row search and shares the same trace/metrics
/// plumbing.
enum class SearchStage {
  kLocate = 0,
  kPairwiseGen,
  kPairwiseExec,
  kWeave,
  kRank,
  kPrune,
};
inline constexpr size_t kNumSearchStages = 6;

const char* SearchStageName(SearchStage stage);

/// \brief Trace record of one pipeline stage within one search.
struct StageTrace {
  double wall_ms = 0.0;
  /// Stage-specific unit count: occurrences located, mappings generated,
  /// queries executed, paths woven, candidates ranked or pruned.
  uint64_t items = 0;
  /// The stage ended with the stop latch set (deadline/cancel observed).
  bool stopped_early = false;
};

/// \brief A copyable snapshot of one search's per-stage trace, embedded in
/// SearchStats and consumed by ServiceMetrics and the benches.
struct ExecutionTrace {
  std::array<StageTrace, kNumSearchStages> stages{};

  /// ShouldStop() polls across the whole search and how many of them
  /// actually read the clock (the throttle keeps clock_reads ~1/64 of
  /// stop_checks).
  uint64_t stop_checks = 0;
  uint64_t clock_reads = 0;

  /// Arena counters at snapshot time.
  size_t arena_bytes_used = 0;
  uint64_t arena_allocations = 0;

  /// Approximate-keyword-lookup counters for this search: per-attribute
  /// probes, memo hits/misses, candidates the indexes examined, fallbacks.
  text::ProbeStats text_probes;

  const StageTrace& stage(SearchStage s) const {
    return stages[static_cast<size_t>(s)];
  }
  /// One-line rendering, e.g. "locate 0.1ms/12 | ... | rank 0.3ms/4".
  std::string ToString() const;
};

/// \brief Per-request runtime state threaded through the TPW pipeline.
class ExecutionContext {
 public:
  /// A real clock read happens at most once per this many ShouldStop()
  /// calls while a deadline is set.
  static constexpr uint64_t kStopPollStride = 64;

  ExecutionContext() = default;

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // ------------------------------------------------ request configuration --

  /// \brief Sets the wall-clock deadline (SearchClock::time_point::max()
  /// means none). Configure before the search starts.
  void set_deadline(SearchClock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = deadline != SearchClock::time_point::max();
  }
  void clear_deadline() { set_deadline(SearchClock::time_point::max()); }
  bool has_deadline() const { return has_deadline_; }
  SearchClock::time_point deadline() const { return deadline_; }

  /// \brief Installs a cooperative cancellation token (may fire from any
  /// thread; must outlive the search). nullptr clears it.
  void set_cancel_token(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// \brief Caps arena bytes for tuple-path storage (0 = unlimited).
  /// Exceeding it truncates the search (like max_total_tuple_paths) but is
  /// not a deadline event.
  void set_memory_budget_bytes(size_t bytes) { memory_budget_bytes_ = bytes; }
  size_t memory_budget_bytes() const { return memory_budget_bytes_; }
  bool OverMemoryBudget() const {
    return memory_budget_bytes_ > 0 && arena_.bytes_used() > memory_budget_bytes_;
  }

  // ------------------------------------------------------- stop plumbing --

  /// \brief True once the search should stop early (deadline passed or the
  /// cancellation token fired). Sticky: once true, stays true until
  /// ResetForSearch(). Cheap enough for tight loops: the clock is read at
  /// most once per kStopPollStride calls.
  bool ShouldStop();

  /// \brief The latch state without polling (no clock read, no token read).
  bool stop_requested() const {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// \brief Trips the latch directly (tests, fatal downstream errors,
  /// chaos-injected cancels).
  void RequestStop() { stopped_.store(true, std::memory_order_relaxed); }

  // --------------------------------------------------------------- arena --

  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }
  /// \brief The memory resource tuple-path stages allocate from.
  std::pmr::memory_resource* resource() { return &arena_; }

  // --------------------------------------------------------------- trace --

  /// \brief RAII span over one pipeline stage: records wall time, an item
  /// counter, and whether the stop latch was set by stage end.
  class StageSpan {
   public:
    StageSpan(ExecutionContext* ctx, SearchStage stage)
        : ctx_(ctx), stage_(stage) {}
    ~StageSpan() { Finish(); }
    StageSpan(const StageSpan&) = delete;
    StageSpan& operator=(const StageSpan&) = delete;

    void AddItems(uint64_t n) { items_ += n; }
    /// \brief Ends the span early (idempotent; the destructor is a no-op
    /// afterwards).
    void Finish();

   private:
    ExecutionContext* ctx_;
    SearchStage stage_;
    Stopwatch watch_;
    uint64_t items_ = 0;
    bool finished_ = false;
  };

  StageSpan TraceStage(SearchStage stage) { return StageSpan(this, stage); }

  /// \brief Accumulator the text layer's probes record into. Only the
  /// search's own thread records here; ProbeCounters is atomic because the
  /// engine keeps one for its lifetime totals, shared by every service
  /// worker searching that engine.
  text::ProbeCounters& probe_counters() { return probe_counters_; }
  const text::ProbeCounters& probe_counters() const { return probe_counters_; }

  /// \brief Copyable snapshot of the trace so far (stop/clock/arena
  /// counters included).
  ExecutionTrace trace() const;

  /// Clock reads performed by ShouldStop() since ResetForSearch() — the
  /// throttle contract tested in core_test.
  uint64_t clock_reads() const {
    return clock_reads_.load(std::memory_order_relaxed);
  }
  uint64_t stop_checks() const {
    return stop_checks_.load(std::memory_order_relaxed);
  }

  /// \brief Injects a fake clock for tests (nullptr restores the real one).
  using NowFn = SearchClock::time_point (*)();
  void SetClockForTesting(NowFn now_fn) { now_fn_ = now_fn; }

  // ------------------------------------------------------------ lifecycle --

  /// \brief Prepares the context for the next search on the same session:
  /// clears the stop latch, poll counters and trace, and recycles the
  /// arena. Deadline, cancel token and budget configuration are kept (the
  /// caller re-arms them per request).
  void ResetForSearch();

 private:
  // Request configuration (written before the search starts, read-only
  // while stages run — the happens-before edge is the stage/thread spawn).
  SearchClock::time_point deadline_ = SearchClock::time_point::max();
  bool has_deadline_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  size_t memory_budget_bytes_ = 0;
  NowFn now_fn_ = nullptr;

  // Stop plumbing (multi-threaded).
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> deadline_polls_{0};
  std::atomic<uint64_t> stop_checks_{0};
  std::atomic<uint64_t> clock_reads_{0};

  // Text-layer probe counters (see probe_counters()).
  text::ProbeCounters probe_counters_;

  // Single-threaded state.
  Arena arena_;
  std::array<StageTrace, kNumSearchStages> stages_{};
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_EXECUTION_CONTEXT_H_
