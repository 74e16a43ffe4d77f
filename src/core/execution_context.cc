#include "core/execution_context.h"

#include "common/failpoint.h"
#include "common/string_util.h"

namespace mweaver::core {

const char* SearchStageName(SearchStage stage) {
  switch (stage) {
    case SearchStage::kLocate:
      return "locate";
    case SearchStage::kPairwiseGen:
      return "pairwise-gen";
    case SearchStage::kPairwiseExec:
      return "pairwise-exec";
    case SearchStage::kWeave:
      return "weave";
    case SearchStage::kRank:
      return "rank";
    case SearchStage::kPrune:
      return "prune";
  }
  return "?";
}

std::string ExecutionTrace::ToString() const {
  std::string out;
  for (size_t i = 0; i < kNumSearchStages; ++i) {
    if (!out.empty()) out += " | ";
    out += StrFormat("%s %.2fms/%llu%s",
                     SearchStageName(static_cast<SearchStage>(i)),
                     stages[i].wall_ms,
                     static_cast<unsigned long long>(stages[i].items),
                     stages[i].stopped_early ? "!" : "");
  }
  out += StrFormat(" | polls %llu (clock %llu) | arena %zuB/%llu allocs",
                   static_cast<unsigned long long>(stop_checks),
                   static_cast<unsigned long long>(clock_reads),
                   arena_bytes_used,
                   static_cast<unsigned long long>(arena_allocations));
  out += StrFormat(
      " | probes %llu (memo %llu/%llu, cand %llu, scan %llu, allrows %llu)",
      static_cast<unsigned long long>(text_probes.probes),
      static_cast<unsigned long long>(text_probes.memo_hits),
      static_cast<unsigned long long>(text_probes.memo_misses),
      static_cast<unsigned long long>(text_probes.candidates_examined),
      static_cast<unsigned long long>(text_probes.scan_fallbacks),
      static_cast<unsigned long long>(text_probes.all_rows_fallbacks));
  return out;
}

bool ExecutionContext::ShouldStop() {
  ++stop_checks_;
  if (stopped_) return true;
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    RequestStop();
    return true;
  }
  if (!has_deadline_) return false;
  // Throttle: only every kStopPollStride-th check reads the clock. The
  // first check always does, so a pre-expired deadline stops the pipeline
  // at its very first poll (locate included).
  if (deadline_polls_++ % kStopPollStride != 0) return false;
  ++clock_reads_;
  // Chaos site (throttled branch only, so the tight-loop fast path stays
  // untouched): a spurious deadline expiry at a clock read.
  if (MW_FAILPOINT_TRIGGERED("core.deadline.poll")) {
    RequestStop();
    return true;
  }
  const SearchClock::time_point now =
      now_fn_ != nullptr ? now_fn_() : SearchClock::now();
  if (now >= deadline_) {
    RequestStop();
    return true;
  }
  return false;
}

void ExecutionContext::StageSpan::Finish() {
  if (finished_) return;
  finished_ = true;
  StageTrace& trace = ctx_->stages_[static_cast<size_t>(stage_)];
  trace.wall_ms += watch_.ElapsedMillis();
  trace.items += items_;
  trace.stopped_early = ctx_->stop_requested();
}

ExecutionTrace ExecutionContext::trace() const {
  ExecutionTrace out;
  out.stages = stages_;
  out.stop_checks = stop_checks_;
  out.clock_reads = clock_reads_;
  out.arena_bytes_used = arena_.bytes_used();
  out.arena_allocations = arena_.num_allocations();
  out.text_probes = probe_counters_.Snapshot();
  return out;
}

void ExecutionContext::ResetForSearch() {
  stopped_ = false;
  deadline_polls_ = 0;
  stop_checks_ = 0;
  clock_reads_ = 0;
  stages_ = {};
  probe_counters_.Reset();
  arena_.Reset();
}

}  // namespace mweaver::core
