// Complete tuple-path construction (Algorithm 5): bottom-up weaving of
// pairwise tuple paths into complete ones, entirely in memory.
//
// Level n holds every distinct tuple path covering n target columns
// (n = 2..m). Each level-(n+1) path is obtained by weaving a pairwise tuple
// path sharing exactly one projection key onto a level-n base. Duplicates
// arising from different weave orders are removed by their canonical keys
// before they are materialised.
#ifndef MWEAVER_CORE_WEAVER_H_
#define MWEAVER_CORE_WEAVER_H_

#include <vector>

#include "core/execution_context.h"
#include "core/options.h"
#include "core/pairwise.h"
#include "core/tuple_path.h"

namespace mweaver::core {

/// \brief Counters from the weave (Figure 13 / Table 4 instrumentation).
struct WeaveStats {
  /// tuple_paths_per_level[n] = number of distinct tuple paths of size n
  /// (index 0 and 1 unused; index 2 = pairwise inputs that survived).
  std::vector<size_t> tuple_paths_per_level;
  /// Total distinct tuple paths processed across levels 2..m ("# TP Woven").
  size_t total_tuple_paths = 0;
  /// Weave invocations attempted / succeeded (pre-dedup).
  size_t weave_attempts = 0;
  size_t weave_successes = 0;
  /// True when max_total_tuple_paths or the deadline stopped the
  /// construction early.
  bool truncated = false;
  /// The early stop was the deadline / cancellation token.
  bool deadline_expired = false;
};

/// \brief Runs Algorithm 5: weaves PTPM entries up to complete size
/// `num_columns`, returning the complete tuple paths (level m).
///
/// With num_columns == 2 the complete paths are the (deduplicated) pairwise
/// paths themselves.
///
/// Each weave lands in one reusable heap scratch path; only a path whose
/// canonical key is new is copied onto `ctx.arena()`, where every kept
/// intermediate and returned path lives. Returned paths are only valid until the context's next
/// ResetForSearch(); ranking detaches the retained examples by plain copy.
/// The deadline/cancel token is polled once per base path, and
/// options.max_total_tuple_paths truncates the weave.
std::vector<TuplePath> GenerateCompleteTuplePaths(const PairwiseTupleMap& ptpm,
                                                  int num_columns,
                                                  const SearchOptions& options,
                                                  ExecutionContext& ctx,
                                                  WeaveStats* stats);

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_WEAVER_H_
