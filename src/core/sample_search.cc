#include "core/sample_search.h"

#include "common/stopwatch.h"
#include "common/string_util.h"

namespace mweaver::core {

Result<SearchResult> SampleSearch(const text::FullTextEngine& engine,
                                  const graph::SchemaGraph& schema_graph,
                                  const std::vector<std::string>& sample_tuple,
                                  const SearchOptions& options) {
  ExecutionContext ctx;
  return SampleSearch(engine, schema_graph, sample_tuple, options, ctx);
}

Result<SearchResult> SampleSearch(const text::FullTextEngine& engine,
                                  const graph::SchemaGraph& schema_graph,
                                  const std::vector<std::string>& sample_tuple,
                                  const SearchOptions& options,
                                  ExecutionContext& ctx) {
  if (sample_tuple.empty()) {
    return Status::InvalidArgument("sample tuple must have at least 1 column");
  }
  if (sample_tuple.size() > static_cast<size_t>(kMaxTargetColumns)) {
    return Status::InvalidArgument(
        StrFormat("sample tuple has %zu columns; at most %d are supported",
                  sample_tuple.size(), kMaxTargetColumns));
  }
  for (size_t i = 0; i < sample_tuple.size(); ++i) {
    if (sample_tuple[i].empty()) {
      return Status::InvalidArgument(StrFormat(
          "sample search requires a fully populated first row; column %zu "
          "is empty",
          i));
    }
  }

  SearchResult result;
  Stopwatch total;

  // Step 1: find sample occurrences (Algorithm 1).
  LocationMap locations;
  {
    ExecutionContext::StageSpan span = ctx.TraceStage(SearchStage::kLocate);
    locations = LocationMap::Build(engine, sample_tuple, &ctx);
    span.AddItems(locations.TotalOccurrences());
  }
  result.stats.num_occurrences = locations.TotalOccurrences();

  const int m = static_cast<int>(sample_tuple.size());
  if (m == 1) {
    // Degenerate case: every attribute containing the sample yields a
    // single-vertex mapping, supported by its matching rows. Paths live on
    // the arena like woven ones; the deadline is polled per row so even
    // m == 1 searches observe a pre-expired deadline.
    std::vector<TuplePath> paths;
    {
      ExecutionContext::StageSpan span = ctx.TraceStage(SearchStage::kWeave);
      for (const text::Occurrence& occ : locations.column(0).occurrences) {
        if (ctx.ShouldStop()) break;
        for (storage::RowId row : *occ.rows) {
          if (ctx.ShouldStop()) break;
          TuplePath tp = TuplePath::SingleVertex(occ.attr.relation, row,
                                                 ctx.resource());
          tp.AddProjection(0, 0, occ.attr.attribute,
                           engine.RowMatchScore(occ.attr, row,
                                                sample_tuple[0]));
          paths.push_back(std::move(tp));
        }
      }
      span.AddItems(paths.size());
    }
    result.stats.num_complete_tuple_paths = paths.size();
    {
      ExecutionContext::StageSpan span = ctx.TraceStage(SearchStage::kRank);
      result.candidates = RankMappings(paths, options, &ctx);
      span.AddItems(result.candidates.size());
    }
    result.stats.num_valid_mappings = result.candidates.size();
    result.stats.deadline_expired = ctx.stop_requested();
    result.stats.truncated = result.stats.deadline_expired;
    result.stats.trace = ctx.trace();
    result.stats.total_ms = total.ElapsedMillis();
    return result;
  }

  // Step 2: pairwise mapping paths (Algorithms 2-4).
  PairwiseMappingMap pmpm;
  {
    ExecutionContext::StageSpan span =
        ctx.TraceStage(SearchStage::kPairwiseGen);
    pmpm = GeneratePairwiseMappingPaths(schema_graph, locations, options, ctx);
    for (const auto& [key, mappings] : pmpm) span.AddItems(mappings.size());
  }

  // Step 3: pairwise tuple paths via approximate search queries.
  query::PathExecutor executor(&engine);
  PairwiseTupleMap ptpm;
  {
    ExecutionContext::StageSpan span =
        ctx.TraceStage(SearchStage::kPairwiseExec);
    MW_ASSIGN_OR_RETURN(ptpm, CreatePairwiseTuplePaths(
                                  executor, pmpm, locations, options, ctx,
                                  &result.stats.pairwise));
    span.AddItems(result.stats.pairwise.num_tuple_paths);
  }

  // Step 4: weave complete tuple paths (Algorithm 5). Runs even when the
  // deadline has expired mid-pairwise: the surviving pairwise paths are
  // themselves deadline-checked, and weaving what exists yields the
  // partial candidates the caller is owed. The woven paths live on
  // ctx.arena() until the next ResetForSearch().
  std::vector<TuplePath> complete;
  {
    ExecutionContext::StageSpan span = ctx.TraceStage(SearchStage::kWeave);
    complete = GenerateCompleteTuplePaths(ptpm, m, options, ctx,
                                          &result.stats.weave);
    span.AddItems(result.stats.weave.total_tuple_paths);
  }
  result.stats.num_complete_tuple_paths = complete.size();

  // Step 5: extract and rank mappings. Retained example tuple paths are
  // copied off the arena here (std::pmr copy semantics).
  {
    ExecutionContext::StageSpan span = ctx.TraceStage(SearchStage::kRank);
    result.candidates = RankMappings(complete, options, &ctx);
    span.AddItems(result.candidates.size());
  }
  result.stats.num_valid_mappings = result.candidates.size();
  result.stats.truncated = result.stats.pairwise.truncated ||
                           result.stats.weave.truncated ||
                           ctx.stop_requested();
  result.stats.deadline_expired = result.stats.pairwise.deadline_expired ||
                                  result.stats.weave.deadline_expired ||
                                  ctx.stop_requested();
  result.stats.trace = ctx.trace();
  result.stats.total_ms = total.ElapsedMillis();
  return result;
}

}  // namespace mweaver::core
