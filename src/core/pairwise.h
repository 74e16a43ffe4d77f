// Pairwise mapping-path generation (Algorithms 2-4) and pairwise tuple-path
// creation (Section 4.5.3).
//
// For every pair of target columns (i, j), i < j, and every pair of
// attributes (A_i in L(i), A_j in L(j)), a depth-limited breadth-first
// search over the schema graph enumerates every relation path of at most
// PMNJ joins connecting the two attributes' relations (PMPM). Each pairwise
// mapping is then executed as an approximate-search query; the resulting
// instance-level supports are the pairwise tuple paths (PTPM), and
// mappings with no support are pruned.
#ifndef MWEAVER_CORE_PAIRWISE_H_
#define MWEAVER_CORE_PAIRWISE_H_

#include <map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/location_map.h"
#include "core/mapping_path.h"
#include "core/options.h"
#include "core/tuple_path.h"
#include "graph/schema_graph.h"
#include "query/executor.h"

namespace mweaver::core {

/// Key (i, j) with i < j: one entry per pair of target columns.
using ColumnPair = std::pair<int, int>;

/// \brief PMPM: pairwise mapping path map (Section 4.5.2).
using PairwiseMappingMap = std::map<ColumnPair, std::vector<MappingPath>>;

/// \brief PTPM: pairwise tuple path map (Section 4.5.3).
using PairwiseTupleMap = std::map<ColumnPair, std::vector<TuplePath>>;

/// \brief Algorithms 2-4: enumerates every pairwise mapping path satisfying
/// the PMNJ constraint (options.pmnj). Each (start attribute, walk, end
/// attribute) yields one chain, and no two chains of a column pair share a
/// canonical form, so no dedup pass runs. Polls `ctx` between BFS start attributes and per depth
/// level; a stop leaves later pairs un-enumerated.
PairwiseMappingMap GeneratePairwiseMappingPaths(
    const graph::SchemaGraph& schema_graph, const LocationMap& locations,
    const SearchOptions& options, ExecutionContext& ctx);

/// \brief Statistics from pairwise tuple-path creation.
struct PairwiseStats {
  size_t num_mappings = 0;        // pairwise mappings generated
  size_t num_valid_mappings = 0;  // with at least one supporting tuple path
  size_t num_tuple_paths = 0;     // total pairwise tuple paths created
  bool truncated = false;         // a per-mapping cap was hit
  /// The deadline / cancellation token stopped execution early: mappings
  /// not yet executed were skipped (their supports are simply missing).
  bool deadline_expired = false;
};

/// \brief Section 4.5.3: executes each pairwise mapping as an approximate
/// search query, keeping the supporting tuple paths; unsupported mappings
/// are dropped.
Result<PairwiseTupleMap> CreatePairwiseTuplePaths(
    const query::PathExecutor& executor, const PairwiseMappingMap& pmpm,
    const LocationMap& locations, const SearchOptions& options,
    ExecutionContext& ctx, PairwiseStats* stats);

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_PAIRWISE_H_
