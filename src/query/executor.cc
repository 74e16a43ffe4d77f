#include "query/executor.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/path_internal.h"

namespace mweaver::query {

namespace {

using core::MappingPath;
using core::PathVertex;
using core::Projection;
using core::TuplePath;
using core::VertexId;
using core::kNoVertex;
using core::internal::AdjEdge;

// One step of the traversal order: assign `vertex`, whose candidate rows
// come from joining `from` via `fk`.
struct Step {
  VertexId vertex;
  VertexId from;                       // kNoVertex for the start vertex
  storage::AttributeId vertex_attr;    // join attr on `vertex`'s side
  storage::AttributeId from_attr;      // join attr on `from`'s side
  // Join index on `vertex_attr`, resolved once per plan (null for the
  // start vertex), so the enumeration never calls IndexOn.
  const storage::JoinIndex* index;
  // Plan::distinct[distinct_begin, distinct_end): earlier-assigned
  // vertices that are neighbors of `from` via the same FK and orientation
  // as `vertex`; their rows must differ from `vertex`'s (see the
  // normal-form note in executor.h).
  size_t distinct_begin;
  size_t distinct_end;
};

bool SortedContains(const std::vector<storage::RowId>& sorted,
                    storage::RowId row) {
  return std::binary_search(sorted.begin(), sorted.end(), row);
}

// The complete evaluation plan for one mapping + constraint set, plus the
// enumeration's assignment vector. One Plan per thread is reused by every
// call (see PlanLease), so every vector below keeps its capacity across
// queries: a warm plan allocates nothing.
struct Plan {
  // Per mapping vertex: the sorted rows satisfying every keyword predicate
  // (projection with a sample) on it, null iff the vertex is
  // unconstrained. Points into a handle in `held` or, for a vertex with
  // two predicates, into its `intersected` buffer.
  std::vector<const std::vector<storage::RowId>*> constraints;
  // The row set handles the constraints point into (located, memoized or
  // freshly probed); released when the call ends.
  std::vector<text::RowSet> held;
  // Per vertex, grown only: the intersection of its predicates' rows.
  std::vector<std::vector<storage::RowId>> intersected;
  VertexId start = 0;
  std::vector<Step> steps;  // empty iff a constraint set is empty
  std::vector<VertexId> distinct;
  bool provably_empty = false;
  // assign_order[v] = position of v in `steps` (SIZE_MAX = unassigned).
  std::vector<size_t> assign_order;
  std::vector<storage::RowId> assignment;
  bool in_use = false;
};

// Calls fn(edge) for every tree neighbor of `u`, ordered by the child
// vertex's id; that order fixes the BFS join order and so the order of
// Execute's results. Scans the parent links instead of building an
// adjacency: a mapping has a handful of vertices.
template <typename Fn>
void ForEachNeighbor(const MappingPath& mapping, VertexId u, Fn&& fn) {
  for (size_t i = 0; i < mapping.num_vertices(); ++i) {
    const auto child = static_cast<VertexId>(i);
    const PathVertex& pv = mapping.vertex(child);
    if (pv.parent == u) {
      fn(AdjEdge{child, pv.fk_to_parent, pv.is_from_side});
    } else if (child == u && pv.parent != kNoVertex) {
      fn(AdjEdge{pv.parent, pv.fk_to_parent, !pv.is_from_side});
    }
  }
}

// The calling thread's Plan for the duration of one Execute, HasSupport or
// Explain call. Ending the lease drops the row set handles, so a plan
// never pins a memo entry past its query.
class PlanLease {
 public:
  PlanLease() : plan_(ThreadPlan()) {
    MW_CHECK(!plan_.in_use) << "PathExecutor re-entered on one thread";
    plan_.in_use = true;
  }
  ~PlanLease() {
    plan_.held.clear();
    plan_.in_use = false;
  }
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;

  Plan& operator*() const { return plan_; }
  Plan* operator->() const { return &plan_; }

 private:
  static Plan& ThreadPlan() {
    thread_local Plan plan;
    return plan;
  }
  Plan& plan_;
};

// Plan construction shared by Execute, HasSupport and Explain: gather
// per-vertex constraint row sets (from `located` or `*probed` when they
// name the projection, else one engine probe each, appended to `probed`
// when given), pick the most selective start vertex, and lay out the BFS
// join order with its join indexes and the normal-form distinctness
// lists. `counters` (may be null) accumulates the keyword probes'
// statistics.
Status BuildPlan(const text::FullTextEngine& engine, const MappingPath& mapping,
                 const SampleMap& samples, std::span<const LocatedRows> located,
                 std::vector<LocatedRows>* probed,
                 text::ProbeCounters* counters, Plan* plan) {
  const storage::Database& db = engine.db();
  const size_t n = mapping.num_vertices();
  if (n == 0) {
    return Status::InvalidArgument("empty mapping path");
  }
  for (const Projection& p : mapping.projections()) {
    if (p.vertex < 0 || static_cast<size_t>(p.vertex) >= n) {
      return Status::InvalidArgument(
          StrFormat("projection for column %d references vertex %d of a "
                    "%zu-vertex path",
                    p.target_column, p.vertex, n));
    }
  }

  // 1. Per-vertex constraint row sets, vertex by vertex and, within a
  // vertex, in projection order; the first empty set proves the query
  // empty and skips the remaining probes. Only a vertex with two
  // predicates (a zero-join chain) intersects.
  plan->provably_empty = false;
  plan->steps.clear();
  plan->constraints.assign(n, nullptr);
  if (plan->intersected.size() < n) plan->intersected.resize(n);
  for (size_t v = 0; v < n; ++v) {
    const std::vector<storage::RowId>*& c = plan->constraints[v];
    const storage::RelationId rel =
        mapping.vertex(static_cast<VertexId>(v)).relation;
    for (const Projection& p : mapping.projections()) {
      if (static_cast<size_t>(p.vertex) != v) continue;
      auto it = samples.find(p.target_column);
      if (it == samples.end() || it->second.empty()) continue;
      const text::AttributeRef attr{rel, p.attribute};
      const LocatedRows* given = FindLocated(located, p.target_column, attr);
      if (given == nullptr && probed != nullptr) {
        given = FindLocated(*probed, p.target_column, attr);
      }
      if (given != nullptr) {
        plan->held.push_back(given->rows);
      } else {
        plan->held.push_back(engine.MatchingRows(attr, it->second, counters));
        if (probed != nullptr) {
          probed->push_back(
              LocatedRows{p.target_column, attr, plan->held.back()});
        }
      }
      const std::vector<storage::RowId>& rows = *plan->held.back();
      if (c == nullptr) {
        c = &rows;
      } else {
        // In-place intersection: the write cursor never passes the read.
        std::vector<storage::RowId>& out = plan->intersected[v];
        if (c != &out) out.assign(c->begin(), c->end());
        size_t kept = 0;
        auto probe = rows.begin();
        for (const storage::RowId row : out) {
          probe = std::lower_bound(probe, rows.end(), row);
          if (probe != rows.end() && *probe == row) out[kept++] = row;
        }
        out.resize(kept);
        c = &out;
      }
      if (c->empty()) {
        plan->provably_empty = true;
        return Status::OK();
      }
    }
  }

  // 2. Pick the start vertex: the constrained vertex with the fewest
  // candidates, falling back to vertex 0 for unconstrained queries.
  plan->start = 0;
  size_t best = SIZE_MAX;
  for (size_t v = 0; v < n; ++v) {
    if (plan->constraints[v] != nullptr &&
        plan->constraints[v]->size() < best) {
      best = plan->constraints[v]->size();
      plan->start = static_cast<VertexId>(v);
    }
  }

  // 3. Traversal order: BFS from the start so each step joins to an
  // already-assigned vertex. `steps` doubles as the BFS queue.
  plan->distinct.clear();
  plan->assign_order.assign(n, SIZE_MAX);
  plan->assign_order[static_cast<size_t>(plan->start)] = 0;
  plan->steps.push_back(Step{plan->start, kNoVertex,
                             storage::kInvalidAttribute,
                             storage::kInvalidAttribute, nullptr, 0, 0});
  const auto assigned = [&](VertexId v) {
    return plan->assign_order[static_cast<size_t>(v)] != SIZE_MAX;
  };
  for (size_t head = 0; head < plan->steps.size(); ++head) {
    const VertexId u = plan->steps[head].vertex;
    ForEachNeighbor(mapping, u, [&](const AdjEdge& e) {
      if (assigned(e.neighbor)) return;
      const storage::ForeignKey& fk =
          db.foreign_keys()[static_cast<size_t>(e.fk)];
      const storage::AttributeId v_attr =
          e.neighbor_is_from_side ? fk.from_attribute : fk.to_attribute;
      const storage::AttributeId u_attr =
          e.neighbor_is_from_side ? fk.to_attribute : fk.from_attribute;
      const storage::Relation& v_rel =
          db.relation(mapping.vertex(e.neighbor).relation);
      Step step{e.neighbor, u, v_attr, u_attr, &v_rel.IndexOn(v_attr),
                plan->distinct.size(), 0};
      // Normal form: the new vertex must differ from every already-
      // assigned neighbor of `u` reached via the same FK/orientation.
      ForEachNeighbor(mapping, u, [&](const AdjEdge& other) {
        if (other.neighbor != e.neighbor && other.fk == e.fk &&
            other.neighbor_is_from_side == e.neighbor_is_from_side &&
            assigned(other.neighbor)) {
          plan->distinct.push_back(other.neighbor);
        }
      });
      step.distinct_end = plan->distinct.size();
      plan->assign_order[static_cast<size_t>(e.neighbor)] =
          plan->steps.size();
      plan->steps.push_back(step);
    });
  }
  MW_CHECK_EQ(plan->steps.size(), n) << "mapping path is not connected";
  return Status::OK();
}

// Depth-first enumeration of row assignments along the plan's steps into
// plan->assignment. Calls `leaf()` on every complete assignment and stops
// once it returns true or `ctx` says stop. Execute and HasSupport differ
// only in their leaf.
template <typename Leaf>
void Enumerate(const storage::Database& db, const MappingPath& mapping,
               core::ExecutionContext* ctx, Plan* plan, Leaf&& leaf) {
  const std::vector<Step>& steps = plan->steps;
  const std::vector<const std::vector<storage::RowId>*>& constraints =
      plan->constraints;
  std::vector<storage::RowId>& assignment = plan->assignment;
  assignment.assign(mapping.num_vertices(), -1);
  bool done = false;
  // Recursive through its own argument: a std::function would allocate
  // once per query.
  auto enumerate = [&](auto& self, size_t step_index) -> void {
    if (done) return;
    // One poll per enumeration node bounds the overrun to a single
    // assignment's fan-out; ShouldStop throttles the actual clock reads.
    if (ctx != nullptr && ctx->ShouldStop()) {
      done = true;
      return;
    }
    if (step_index == steps.size()) {
      done = leaf();
      return;
    }
    const Step& step = steps[step_index];
    const size_t v = static_cast<size_t>(step.vertex);

    if (step.from == kNoVertex) {
      // Start vertex: iterate its constrained candidates, or every row.
      const storage::Relation& rel =
          db.relation(mapping.vertex(step.vertex).relation);
      if (constraints[v] != nullptr) {
        for (storage::RowId row : *constraints[v]) {
          assignment[v] = row;
          self(self, step_index + 1);
          if (done) return;
        }
      } else {
        for (size_t r = 0; r < rel.num_rows(); ++r) {
          if (rel.is_deleted(static_cast<storage::RowId>(r))) continue;
          assignment[v] = static_cast<storage::RowId>(r);
          self(self, step_index + 1);
          if (done) return;
        }
      }
      return;
    }

    const storage::Relation& from_rel =
        db.relation(mapping.vertex(step.from).relation);
    const storage::ValueView join_value = from_rel.at(
        assignment[static_cast<size_t>(step.from)], step.from_attr);
    if (join_value.is_null()) return;  // inner join: NULL never matches
    for (storage::RowId row : step.index->Lookup(join_value)) {
      if (constraints[v] != nullptr && !SortedContains(*constraints[v], row)) {
        continue;
      }
      bool duplicate_sibling = false;
      for (size_t d = step.distinct_begin; d < step.distinct_end; ++d) {
        if (assignment[static_cast<size_t>(plan->distinct[d])] == row) {
          duplicate_sibling = true;
          break;
        }
      }
      if (duplicate_sibling) continue;
      assignment[v] = row;
      self(self, step_index + 1);
      if (done) return;
    }
  };
  enumerate(enumerate, 0);
}

}  // namespace

const LocatedRows* FindLocated(std::span<const LocatedRows> located,
                               int target_column,
                               const text::AttributeRef& attr) {
  for (const LocatedRows& l : located) {
    if (l.target_column == target_column && l.attr == attr) return &l;
  }
  return nullptr;
}

PathExecutor::PathExecutor(const text::FullTextEngine* engine)
    : engine_(engine) {
  MW_CHECK(engine != nullptr);
}

Result<std::vector<core::TuplePath>> PathExecutor::Execute(
    const core::MappingPath& mapping, const SampleMap& samples,
    const ExecOptions& options, core::ExecutionContext* ctx,
    std::span<const LocatedRows> located) const {
  const size_t n = mapping.num_vertices();
  PlanLease plan;
  MW_RETURN_NOT_OK(BuildPlan(
      *engine_, mapping, samples, located, nullptr,
      ctx != nullptr ? &ctx->probe_counters() : nullptr, &*plan));
  std::vector<core::TuplePath> results;
  if (plan->provably_empty) return results;
  const std::vector<storage::RowId>& assignment = plan->assignment;

  // Builds a TuplePath mirroring the mapping's own rooted structure, so
  // projections transfer vertex-for-vertex.
  auto emit = [&]() {
    TuplePath tp = TuplePath::SingleVertex(mapping.vertex(0).relation,
                                           assignment[0]);
    for (size_t v = 1; v < n; ++v) {
      const PathVertex& pv = mapping.vertex(static_cast<VertexId>(v));
      tp.AddVertex(pv.relation, assignment[v], pv.parent, pv.fk_to_parent,
                   pv.is_from_side);
    }
    for (const Projection& p : mapping.projections()) {
      double score = 1.0;
      auto it = samples.find(p.target_column);
      if (it != samples.end() && !it->second.empty()) {
        const storage::RelationId rel = mapping.vertex(p.vertex).relation;
        score = engine_->RowMatchScore(
            text::AttributeRef{rel, p.attribute},
            assignment[static_cast<size_t>(p.vertex)], it->second);
      }
      tp.AddProjection(p.target_column, p.vertex, p.attribute, score);
    }
    results.push_back(std::move(tp));
  };

  Enumerate(engine_->db(), mapping, ctx, &*plan, [&] {
    emit();
    return options.max_results > 0 && results.size() >= options.max_results;
  });
  return results;
}

Result<std::string> PathExecutor::Explain(const core::MappingPath& mapping,
                                          const SampleMap& samples) const {
  const storage::Database& db = engine_->db();
  PlanLease plan;
  MW_RETURN_NOT_OK(
      BuildPlan(*engine_, mapping, samples, {}, nullptr, nullptr, &*plan));
  std::string out = "plan for " + mapping.ToString(db) + "\n";
  if (plan->provably_empty) {
    out += "  provably empty: a keyword constraint matches no rows\n";
    return out;
  }
  for (size_t i = 0; i < plan->steps.size(); ++i) {
    const Step& step = plan->steps[i];
    const storage::Relation& rel =
        db.relation(mapping.vertex(step.vertex).relation);
    const std::vector<storage::RowId>* c =
        plan->constraints[static_cast<size_t>(step.vertex)];
    out += StrFormat("  %zu. ", i + 1);
    if (step.from == kNoVertex) {
      out += "scan " + rel.name();
      if (c == nullptr) {
        out += StrFormat(" (%zu rows)", rel.num_rows());
      } else {
        out += StrFormat(" via full-text candidates (%zu rows)", c->size());
      }
    } else {
      const storage::Relation& from_rel =
          db.relation(mapping.vertex(step.from).relation);
      out += StrFormat(
          "index join %s.%s = %s.%s", rel.name().c_str(),
          rel.schema().attribute(step.vertex_attr).name.c_str(),
          from_rel.name().c_str(),
          from_rel.schema().attribute(step.from_attr).name.c_str());
      if (c != nullptr) {
        out += StrFormat(" ∩ full-text candidates (%zu rows)", c->size());
      }
      if (step.distinct_end > step.distinct_begin) {
        out += StrFormat(" [distinct from %zu sibling(s)]",
                         step.distinct_end - step.distinct_begin);
      }
    }
    out += "\n";
  }
  return out;
}

Result<bool> PathExecutor::HasSupport(
    const core::MappingPath& mapping, const SampleMap& samples,
    core::ExecutionContext* ctx, std::vector<LocatedRows>* resolved) const {
  PlanLease plan;
  MW_RETURN_NOT_OK(BuildPlan(
      *engine_, mapping, samples, {}, resolved,
      ctx != nullptr ? &ctx->probe_counters() : nullptr, &*plan));
  if (plan->provably_empty) return false;
  bool found = false;
  Enumerate(engine_->db(), mapping, ctx, &*plan, [&] {
    found = true;
    return true;
  });
  return found;
}

Result<std::vector<std::vector<std::string>>> PathExecutor::EvaluateTarget(
    const core::MappingPath& mapping, size_t max_rows,
    core::ExecutionContext* ctx) const {
  ExecOptions options;
  options.max_results = max_rows;
  MW_ASSIGN_OR_RETURN(std::vector<core::TuplePath> paths,
                      Execute(mapping, SampleMap{}, options, ctx));
  std::set<std::vector<std::string>> distinct;
  for (const core::TuplePath& tp : paths) {
    distinct.insert(tp.ProjectTargetValues(engine_->db()));
  }
  return std::vector<std::vector<std::string>>(distinct.begin(),
                                               distinct.end());
}

}  // namespace mweaver::query
