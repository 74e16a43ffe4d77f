#include "core/weaver.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/logging.h"

namespace mweaver::core {

std::vector<TuplePath> GenerateCompleteTuplePaths(const PairwiseTupleMap& ptpm,
                                                  int num_columns,
                                                  const SearchOptions& options,
                                                  ExecutionContext& ctx,
                                                  WeaveStats* stats) {
  MW_CHECK_GE(num_columns, 2);
  MW_CHECK_LE(num_columns, kMaxTargetColumns);
  const size_t m = static_cast<size_t>(num_columns);
  WeaveStats local;
  local.tuple_paths_per_level.assign(m + 1, 0);
  std::pmr::memory_resource* const arena = ctx.resource();

  // Canonical key of the latest path; reused so a duplicate costs no
  // allocation.
  std::string key;

  // Level 2: all pairwise tuple paths, deduplicated and cloned onto the
  // arena so every level (and the returned paths) shares one allocator.
  std::vector<TuplePath> level;
  {
    std::unordered_set<std::string> seen;
    for (const auto& [columns, paths] : ptpm) {
      for (const TuplePath& tp : paths) {
        tp.Canonical(&key);
        if (seen.insert(key).second) level.emplace_back(tp, arena);
      }
    }
  }
  local.tuple_paths_per_level[std::min<size_t>(2, m)] = level.size();
  local.total_tuple_paths = level.size();

  auto over_budget = [&]() {
    return (options.max_total_tuple_paths > 0 &&
            local.total_tuple_paths > options.max_total_tuple_paths) ||
           ctx.OverMemoryBudget();
  };

  // Every weave lands in this heap scratch first; only a path the dedup set
  // accepts is copied onto the arena, so duplicates never reach it.
  TuplePath woven;
  for (size_t n = 2; n < m && !level.empty(); ++n) {
    std::vector<TuplePath> next;
    std::unordered_set<std::string> seen;
    for (const TuplePath& base : level) {
      // Chaos site: a spurious cancellation landing mid-weave, exactly as a
      // client disconnect would — the run must still surface a classified,
      // truncated result.
      if (MW_FAILPOINT_FIRE("core.weave.step") == FailAction::kCancel) {
        ctx.RequestStop();
      }
      // One stop check per base path: bases fan out into many weave
      // attempts, so this bounds the overrun without a clock read per
      // attempt (ShouldStop throttles clock reads further).
      if (ctx.ShouldStop()) {
        local.truncated = true;
        local.deadline_expired = true;
        break;
      }
      const uint64_t base_cols = base.ColumnMask();
      for (const auto& [columns, pairwise_paths] : ptpm) {
        // Weavable iff the pairwise keys intersect the base's in exactly
        // one column (Algorithm 5, line 8).
        const uint64_t in_base = ((base_cols >> columns.first) & 1) +
                                 ((base_cols >> columns.second) & 1);
        if (in_base != 1) continue;
        for (const TuplePath& ptp : pairwise_paths) {
          ++local.weave_attempts;
          if (!TuplePath::WeaveInto(base, ptp, &woven)) continue;
          ++local.weave_successes;
          woven.Canonical(&key);
          if (seen.insert(key).second) {
            next.emplace_back(woven, arena);
            ++local.total_tuple_paths;
            if (over_budget()) {
              local.truncated = true;
              break;
            }
          }
        }
        if (local.truncated) break;
      }
      if (local.truncated) break;
    }
    local.tuple_paths_per_level[n + 1] = next.size();
    level = std::move(next);
    if (local.truncated) break;
  }

  if (stats != nullptr) *stats = local;
  return level;
}

}  // namespace mweaver::core
