#include "core/pruning.h"

#include <span>
#include <utility>

#include "common/result.h"

namespace mweaver::core {

namespace {

// Compacts `candidates` in place, keeping index order, dropping every entry
// whose drop flag is set. Returns the number removed.
size_t CompactDropped(std::vector<CandidateMapping>* candidates,
                      const std::vector<unsigned char>& drop) {
  const size_t before = candidates->size();
  size_t out = 0;
  for (size_t i = 0; i < before; ++i) {
    if (drop[i]) continue;
    if (out != i) (*candidates)[out] = std::move((*candidates)[i]);
    ++out;
  }
  candidates->resize(out);
  return before - out;
}

}  // namespace

size_t PruneByAttribute(const text::FullTextEngine& engine, int target_column,
                        const std::string& sample,
                        std::vector<CandidateMapping>* candidates,
                        ExecutionContext* ctx,
                        std::vector<query::LocatedRows>* row_located) {
  // drop[i] set => candidate i was examined and disproven (or malformed).
  // Unexamined candidates — the deadline/cancel fired before their probe —
  // keep their zero: a stop may only leave extra candidates, never remove
  // valid ones. A pre-expired deadline therefore costs zero probes.
  std::vector<unsigned char> drop(candidates->size(), 0);
  // Each attribute's rows, probed when a candidate first needs them. The
  // caller's row holds no rows for this column, so only this call's own
  // probes, appended from `first` on, are searched.
  std::vector<query::LocatedRows> pass_rows;
  std::vector<query::LocatedRows>& probed =
      row_located != nullptr ? *row_located : pass_rows;
  const size_t first = probed.size();
  for (size_t i = 0; i < candidates->size(); ++i) {
    const CandidateMapping& cand = (*candidates)[i];
    const Projection* p = cand.mapping.FindProjection(target_column);
    if (p == nullptr) {  // malformed: drop, no probe needed
      drop[i] = 1;
      continue;
    }
    if (ctx != nullptr && ctx->ShouldStop()) continue;
    const text::AttributeRef attr{cand.mapping.vertex(p->vertex).relation,
                                  p->attribute};
    const query::LocatedRows* rows = query::FindLocated(
        std::span(probed).subspan(first), target_column, attr);
    if (rows == nullptr) {
      probed.push_back(query::LocatedRows{
          target_column, attr,
          engine.MatchingRows(
              attr, sample,
              ctx != nullptr ? &ctx->probe_counters() : nullptr)});
      rows = &probed.back();
    }
    if (rows->rows->empty()) drop[i] = 1;
  }
  return CompactDropped(candidates, drop);
}

Status PruneByStructure(const query::PathExecutor& executor,
                        const query::SampleMap& row_samples,
                        std::vector<CandidateMapping>* candidates,
                        size_t* num_pruned, ExecutionContext* ctx,
                        std::vector<query::LocatedRows>* row_located) {
  std::vector<unsigned char> drop(candidates->size(), 0);
  // Rows of every (column, attribute) resolved so far, by the caller's
  // earlier passes over the row or an earlier support query of this one:
  // later queries take them instead of probing again.
  std::vector<query::LocatedRows> pass_rows;
  std::vector<query::LocatedRows>* probed =
      row_located != nullptr ? row_located : &pass_rows;
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (ctx != nullptr && ctx->ShouldStop()) continue;  // unexamined: keep
    MW_ASSIGN_OR_RETURN(const bool supported,
                        executor.HasSupport((*candidates)[i].mapping,
                                            row_samples, ctx, probed));
    // A query cut off mid-enumeration reports false for support it did
    // not get to find — that is "unexamined", not "disproven", so the
    // candidate stays.
    if (!supported && !(ctx != nullptr && ctx->stop_requested())) {
      drop[i] = 1;
    }
  }
  const size_t removed = CompactDropped(candidates, drop);
  if (num_pruned != nullptr) *num_pruned = removed;
  return Status::OK();
}

}  // namespace mweaver::core
