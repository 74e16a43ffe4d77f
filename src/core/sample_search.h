// SampleSearch: the full TPW pipeline (Section 4.3's five steps).
//
//   1. LocateSamples      -> LocationMap            (core/location_map.h)
//   2. Pairwise mappings  -> PairwiseMappingMap     (core/pairwise.h)
//   3. Pairwise tuples    -> PairwiseTupleMap       (core/pairwise.h)
//   4. Complete weaving   -> complete tuple paths   (core/weaver.h)
//   5. Ranking            -> CandidateMapping list  (core/ranking.h)
#ifndef MWEAVER_CORE_SAMPLE_SEARCH_H_
#define MWEAVER_CORE_SAMPLE_SEARCH_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/location_map.h"
#include "core/options.h"
#include "core/pairwise.h"
#include "core/ranking.h"
#include "core/weaver.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "text/fulltext_engine.h"

namespace mweaver::core {

/// \brief End-to-end counters and timings for one sample search.
struct SearchStats {
  size_t num_occurrences = 0;        // location-map entries
  PairwiseStats pairwise;            // steps 2-3
  WeaveStats weave;                  // step 4
  size_t num_complete_tuple_paths = 0;
  size_t num_valid_mappings = 0;     // "# Valid MP" of Table 4

  /// True when any stage stopped early (per-mapping/total tuple-path caps
  /// or the deadline), so the candidate list may be incomplete.
  bool truncated = false;
  /// True when the early stop was the deadline / cancellation token.
  bool deadline_expired = false;
  /// True when a caller-side result cache answered the search instead of
  /// running it (set by the service's caching search hook).
  bool from_cache = false;

  /// Per-stage trace (wall time, item counts, early-stop flags) plus
  /// stop-check/clock/arena counters, snapshotted from the
  /// ExecutionContext at search end.
  ExecutionTrace trace;

  /// Wall time of the whole search.
  double total_ms = 0.0;
};

/// \brief Result of sample search: ranked candidates + instrumentation.
struct SearchResult {
  std::vector<CandidateMapping> candidates;
  SearchStats stats;
};

/// \brief Runs TPW for the (fully populated) first sample row. Every entry
/// of `sample_tuple` must be non-empty. m == 1 degenerates to single-vertex
/// mappings over the sample's occurrences.
///
/// `ctx` supplies the request's deadline/cancellation, the tuple-path
/// arena, and collects the per-stage trace. The caller is responsible for
/// ctx.ResetForSearch() between searches (Session does this); candidates'
/// example tuple paths are heap-backed copies and outlive the arena.
Result<SearchResult> SampleSearch(const text::FullTextEngine& engine,
                                  const graph::SchemaGraph& schema_graph,
                                  const std::vector<std::string>& sample_tuple,
                                  const SearchOptions& options,
                                  ExecutionContext& ctx);

/// \brief Convenience overload running on a fresh internal context (no
/// deadline, no cancellation, default arena).
Result<SearchResult> SampleSearch(const text::FullTextEngine& engine,
                                  const graph::SchemaGraph& schema_graph,
                                  const std::vector<std::string>& sample_tuple,
                                  const SearchOptions& options = {});

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_SAMPLE_SEARCH_H_
