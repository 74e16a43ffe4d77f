// Test oracle for the pruning passes (Section 5): the per-candidate loops
// the production passes replaced. Pruning by attribute probes the engine
// once per candidate; pruning by structure runs one stop-at-first Execute
// per candidate and keeps it iff a tuple path comes back. Neither shares a
// probe between candidates. The stop contract is the production one: a
// candidate not examined before a stop is kept.
#ifndef MWEAVER_TESTS_REFERENCE_PRUNE_H_
#define MWEAVER_TESTS_REFERENCE_PRUNE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/ranking.h"
#include "query/executor.h"
#include "text/fulltext_engine.h"

namespace mweaver::testing {

/// Keeps the candidates whose `drop` flag is clear, in order; returns the
/// number removed.
inline size_t ReferenceCompact(std::vector<core::CandidateMapping>* candidates,
                               const std::vector<bool>& drop) {
  std::vector<core::CandidateMapping> kept;
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (!drop[i]) kept.push_back(std::move((*candidates)[i]));
  }
  const size_t removed = candidates->size() - kept.size();
  *candidates = std::move(kept);
  return removed;
}

inline size_t ReferencePruneByAttribute(
    const text::FullTextEngine& engine, int target_column,
    const std::string& sample, std::vector<core::CandidateMapping>* candidates,
    core::ExecutionContext* ctx = nullptr) {
  std::vector<bool> drop(candidates->size(), false);
  for (size_t i = 0; i < candidates->size(); ++i) {
    const core::MappingPath& mapping = (*candidates)[i].mapping;
    const core::Projection* p = mapping.FindProjection(target_column);
    if (p == nullptr) {
      drop[i] = true;
      continue;
    }
    if (ctx != nullptr && ctx->ShouldStop()) continue;
    const text::AttributeRef attr{mapping.vertex(p->vertex).relation,
                                  p->attribute};
    drop[i] = engine
                  .MatchingRows(attr, sample,
                                ctx != nullptr ? &ctx->probe_counters()
                                               : nullptr)
                  ->empty();
  }
  return ReferenceCompact(candidates, drop);
}

/// True iff `mapping` has a supporting tuple path for `samples`, by
/// materialising the first one.
inline Result<bool> ReferenceSupport(const query::PathExecutor& executor,
                                     const core::MappingPath& mapping,
                                     const query::SampleMap& samples,
                                     core::ExecutionContext* ctx = nullptr) {
  query::ExecOptions options;
  options.max_results = 1;
  MW_ASSIGN_OR_RETURN(std::vector<core::TuplePath> paths,
                      executor.Execute(mapping, samples, options, ctx));
  return !paths.empty();
}

inline Result<size_t> ReferencePruneByStructure(
    const query::PathExecutor& executor, const query::SampleMap& row_samples,
    std::vector<core::CandidateMapping>* candidates,
    core::ExecutionContext* ctx = nullptr) {
  std::vector<bool> drop(candidates->size(), false);
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (ctx != nullptr && ctx->ShouldStop()) continue;
    MW_ASSIGN_OR_RETURN(
        const bool supported,
        ReferenceSupport(executor, (*candidates)[i].mapping, row_samples, ctx));
    drop[i] = !supported && !(ctx != nullptr && ctx->stop_requested());
  }
  return ReferenceCompact(candidates, drop);
}

}  // namespace mweaver::testing

#endif  // MWEAVER_TESTS_REFERENCE_PRUNE_H_
