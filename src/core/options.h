// Tunables of the TPW sample-search pipeline.
//
// SearchOptions is a pure, copyable value type: it describes WHAT to search
// (search-space bounds, ranking weights) and never carries
// per-request runtime state. Deadlines, cancellation tokens, the arena and
// tracing live in core::ExecutionContext (core/execution_context.h),
// which is threaded through the pipeline alongside the options.
#ifndef MWEAVER_CORE_OPTIONS_H_
#define MWEAVER_CORE_OPTIONS_H_

#include <chrono>
#include <cstddef>
#include <string>

namespace mweaver::core {

/// Clock used for search deadlines.
using SearchClock = std::chrono::steady_clock;

/// \brief Options controlling sample search (Section 4.5) and ranking.
struct SearchOptions {
  /// Pairwise Maximal Number of Joins (Section 4.5.2): the BFS depth limit
  /// when connecting a pair of projected attributes. The paper uses 2.
  int pmnj = 2;

  /// Ranking weights (Section 4.5.5): score = matching_weight * mean match
  /// score + complexity_weight * 1/(1 + #joins).
  double matching_weight = 0.7;
  double complexity_weight = 0.3;

  /// Upper bound on tuple paths created per pairwise mapping (0 = no
  /// bound). When hit, SearchStats::truncated is set; completeness is no
  /// longer guaranteed.
  size_t max_tuple_paths_per_mapping = 0;

  /// Upper bound on tuple paths held across all levels of the weave (0 = no
  /// bound); emulates a memory budget. When hit, SearchStats::truncated is
  /// set.
  size_t max_total_tuple_paths = 0;

  /// How many supporting tuple paths each returned candidate retains for
  /// display/explanation (scores are computed over all of them regardless).
  size_t retained_tuple_paths_per_mapping = 3;

  /// \brief Canonical encoding of every option that can change the result
  /// SET of a search. Two option values with equal fingerprints produce
  /// identical candidate lists for identical inputs. service::ResultCache
  /// keys on this — when adding a field to this struct, decide whether it
  /// is result-affecting and update Fingerprint() accordingly (a sizeof
  /// tripwire in result_cache.cc forces the review).
  std::string Fingerprint() const;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_OPTIONS_H_
