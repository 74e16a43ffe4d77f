// Test oracle for the weave stage: the clone-then-canonicalise Algorithm 5/6
// the production weave replaced. Every success is cloned, its adjacency
// built, its chain found by DFS, and duplicates are dropped by a string AHU
// encoding minimised over every rooting. Slow and obviously right; the
// property tests demand the production weave match it exactly.
#ifndef MWEAVER_TESTS_REFERENCE_WEAVE_H_
#define MWEAVER_TESTS_REFERENCE_WEAVE_H_

#include <algorithm>
#include <cstring>
#include <memory_resource>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/execution_context.h"
#include "core/options.h"
#include "core/pairwise.h"
#include "core/path_internal.h"
#include "core/tuple_path.h"
#include "core/weaver.h"

namespace mweaver::testing {

/// Rooting-independent string encoding of a tuple path: labels
/// "R<relation>#<row>[<column>:<attribute>,...]", edges "-f<fk>" plus the
/// child's orientation, minimum over all rootings.
inline std::string ReferenceCanonical(const core::TuplePath& tp) {
  std::vector<core::PathVertex> vertices;
  std::vector<std::string> labels;
  for (size_t i = 0; i < tp.num_vertices(); ++i) {
    const auto v = static_cast<core::VertexId>(i);
    vertices.push_back(tp.vertex(v));
    std::string label = "R" + std::to_string(tp.vertex(v).relation) + "#" +
                        std::to_string(tp.row(v));
    std::vector<std::string> projs;
    for (const core::Projection& p : tp.projections()) {
      if (p.vertex == v) {
        projs.push_back(std::to_string(p.target_column) + ":" +
                        std::to_string(p.attribute));
      }
    }
    std::sort(projs.begin(), projs.end());
    if (!projs.empty()) label += "[" + Join(projs, ",") + "]";
    labels.push_back(std::move(label));
  }
  return core::internal::CanonicalEncoding(vertices, labels);
}

/// Algorithm 6 as first written: clone `base` onto `mr`, then merge along
/// the DFS chain of `ptp` from the fuse vertex to the new projection.
inline std::optional<core::TuplePath> ReferenceWeave(
    const core::TuplePath& base, const core::TuplePath& ptp,
    std::pmr::memory_resource* mr = nullptr) {
  using core::internal::AdjEdge;
  MW_CHECK_EQ(ptp.size(), 2u);
  const std::vector<int> base_cols = base.TargetColumns();
  int common_key = -1;
  int new_key = -1;
  for (const core::Projection& p : ptp.projections()) {
    if (std::find(base_cols.begin(), base_cols.end(), p.target_column) !=
        base_cols.end()) {
      MW_CHECK_EQ(common_key, -1);
      common_key = p.target_column;
    } else {
      new_key = p.target_column;
    }
  }
  MW_CHECK_NE(common_key, -1);
  MW_CHECK_NE(new_key, -1);
  const core::Projection* ptp_new = ptp.FindProjection(new_key);
  const core::VertexId fuse_base = base.FindProjection(common_key)->vertex;
  const core::VertexId fuse_ptp = ptp.FindProjection(common_key)->vertex;
  if (base.vertex(fuse_base).relation != ptp.vertex(fuse_ptp).relation ||
      base.row(fuse_base) != ptp.row(fuse_ptp)) {
    return std::nullopt;
  }

  core::TuplePath result(base,
                         mr != nullptr ? mr : std::pmr::get_default_resource());
  const auto base_adj = core::internal::BuildAdjacency(
      result.parents(), result.fks(), result.from_sides());
  const auto ptp_adj = core::internal::BuildAdjacency(
      ptp.parents(), ptp.fks(), ptp.from_sides());
  const std::vector<core::VertexId> chain =
      core::internal::SimplePath(ptp_adj, fuse_ptp, ptp_new->vertex);

  std::vector<bool> visited(result.num_vertices(), false);
  visited[static_cast<size_t>(fuse_base)] = true;
  core::VertexId cur = fuse_base;
  bool grafting = false;
  for (size_t step = 1; step < chain.size(); ++step) {
    const core::VertexId pv = chain[step];
    storage::ForeignKeyId fk = -1;
    bool pv_is_from = false;
    for (const AdjEdge& e : ptp_adj[static_cast<size_t>(chain[step - 1])]) {
      if (e.neighbor == pv) {
        fk = e.fk;
        pv_is_from = e.neighbor_is_from_side;
        break;
      }
    }
    MW_CHECK_NE(fk, -1);
    if (!grafting) {
      core::VertexId merged = core::kNoVertex;
      for (const AdjEdge& e : base_adj[static_cast<size_t>(cur)]) {
        if (visited[static_cast<size_t>(e.neighbor)]) continue;
        if (e.fk != fk || e.neighbor_is_from_side != pv_is_from) continue;
        if (result.vertex(e.neighbor).relation == ptp.vertex(pv).relation &&
            result.row(e.neighbor) == ptp.row(pv)) {
          merged = e.neighbor;
          break;
        }
      }
      if (merged != core::kNoVertex) {
        cur = merged;
        visited[static_cast<size_t>(merged)] = true;
        continue;
      }
      grafting = true;
    }
    cur = result.AddVertex(ptp.vertex(pv).relation, ptp.row(pv), cur, fk,
                           pv_is_from);
  }
  const size_t ptp_new_index =
      static_cast<size_t>(ptp_new - ptp.projections().data());
  result.AddProjection(new_key, cur, ptp_new->attribute,
                       ptp.match_score(ptp_new_index));
  return result;
}

/// Algorithm 5 as first written: nested loops over bases and pairwise
/// paths, every success cloned onto the arena, then deduplicated through a
/// std::set of ReferenceCanonical strings. Truncates on
/// options.max_total_tuple_paths and the context's stop token exactly
/// where the production weave does (its memory budget is not mirrored: the
/// reference puts every success, duplicates included, on the arena).
inline std::vector<core::TuplePath> ReferenceCompleteTuplePaths(
    const core::PairwiseTupleMap& ptpm, int num_columns,
    const core::SearchOptions& options, core::ExecutionContext& ctx,
    core::WeaveStats* stats) {
  const size_t m = static_cast<size_t>(num_columns);
  core::WeaveStats local;
  local.tuple_paths_per_level.assign(m + 1, 0);
  std::pmr::memory_resource* const arena = ctx.resource();
  std::vector<core::TuplePath> level;
  {
    std::set<std::string> seen;
    for (const auto& [key, paths] : ptpm) {
      for (const core::TuplePath& tp : paths) {
        if (seen.insert(ReferenceCanonical(tp)).second) {
          level.emplace_back(tp, arena);
        }
      }
    }
  }
  local.tuple_paths_per_level[std::min<size_t>(2, m)] = level.size();
  local.total_tuple_paths = level.size();
  const auto over_budget = [&]() {
    return options.max_total_tuple_paths > 0 &&
           local.total_tuple_paths > options.max_total_tuple_paths;
  };
  for (size_t n = 2; n < m && !level.empty(); ++n) {
    std::vector<core::TuplePath> next;
    std::set<std::string> seen;
    for (const core::TuplePath& base : level) {
      if (ctx.ShouldStop()) {
        local.truncated = true;
        local.deadline_expired = true;
        break;
      }
      const std::vector<int> base_cols = base.TargetColumns();
      const auto covers = [&](int col) {
        return std::find(base_cols.begin(), base_cols.end(), col) !=
               base_cols.end();
      };
      for (const auto& [key, pairwise_paths] : ptpm) {
        if ((covers(key.first) ? 1 : 0) + (covers(key.second) ? 1 : 0) != 1) {
          continue;
        }
        for (const core::TuplePath& ptp : pairwise_paths) {
          ++local.weave_attempts;
          std::optional<core::TuplePath> woven =
              ReferenceWeave(base, ptp, arena);
          if (!woven.has_value()) continue;
          ++local.weave_successes;
          if (seen.insert(ReferenceCanonical(*woven)).second) {
            next.push_back(std::move(*woven));
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

/// True when `a` and `b` hold the same vertices, edges, rows, projections
/// and match scores, in the same order (bitwise on the scores).
inline bool IdenticalTuplePaths(const core::TuplePath& a,
                                const core::TuplePath& b) {
  if (a.num_vertices() != b.num_vertices() || a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.num_vertices(); ++i) {
    const auto v = static_cast<core::VertexId>(i);
    const core::PathVertex x = a.vertex(v);
    const core::PathVertex y = b.vertex(v);
    if (x.relation != y.relation || x.parent != y.parent ||
        x.fk_to_parent != y.fk_to_parent || x.is_from_side != y.is_from_side ||
        a.row(v) != b.row(v)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a.projections()[i] == b.projections()[i])) return false;
    const double sa = a.match_score(i);
    const double sb = b.match_score(i);
    if (std::memcmp(&sa, &sb, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace mweaver::testing

#endif  // MWEAVER_TESTS_REFERENCE_WEAVE_H_
