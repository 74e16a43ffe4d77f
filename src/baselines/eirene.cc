#include "baselines/eirene.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::baselines {

namespace {

using core::MappingPath;
using core::VertexId;

// An FK link between two example tuples (indices into source_tuples).
struct TupleEdge {
  size_t a;
  size_t b;
  storage::ForeignKeyId fk;
  bool a_is_from_side;
};

// All FK links holding between the example's tuples in the instance.
std::vector<TupleEdge> LinkTuples(const storage::Database& db,
                                  const DataExample& example) {
  std::vector<TupleEdge> edges;
  const auto& tuples = example.source_tuples;
  for (size_t a = 0; a < tuples.size(); ++a) {
    for (size_t b = 0; b < tuples.size(); ++b) {
      if (a == b) continue;
      for (size_t f = 0; f < db.foreign_keys().size(); ++f) {
        const storage::ForeignKey& fk = db.foreign_keys()[f];
        if (tuples[a].first != fk.from_relation ||
            tuples[b].first != fk.to_relation) {
          continue;
        }
        const storage::ValueView va =
            db.relation(tuples[a].first).at(tuples[a].second,
                                            fk.from_attribute);
        const storage::ValueView vb =
            db.relation(tuples[b].first).at(tuples[b].second,
                                            fk.to_attribute);
        if (!va.is_null() && va == vb) {
          // Record each undirected link once (from the "a < b" side when
          // both directions exist as separate FKs they are distinct edges).
          edges.push_back(
              TupleEdge{a, b, static_cast<storage::ForeignKeyId>(f), true});
        }
      }
    }
  }
  return edges;
}

// True iff `edge_subset` forms a spanning tree over n vertices.
bool IsSpanningTree(const std::vector<TupleEdge>& edges,
                    const std::vector<size_t>& edge_subset, size_t n) {
  if (edge_subset.size() + 1 != n) return false;
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t e : edge_subset) {
    const size_t ra = find(edges[e].a);
    const size_t rb = find(edges[e].b);
    if (ra == rb) return false;  // cycle
    parent[ra] = rb;
  }
  return true;
}

}  // namespace

EireneFitter::EireneFitter(const storage::Database* db, EireneOptions options)
    : db_(db), options_(options) {
  MW_CHECK(db != nullptr);
}

Result<std::vector<core::MappingPath>> EireneFitter::FitOne(
    const DataExample& example) const {
  const storage::Database& db = *db_;
  const size_t n = example.source_tuples.size();
  if (n == 0) {
    return Status::InvalidArgument("data example has no source tuples");
  }
  for (const auto& [rel, row] : example.source_tuples) {
    if (rel < 0 || static_cast<size_t>(rel) >= db.num_relations()) {
      return Status::InvalidArgument("example references unknown relation");
    }
    if (row < 0 ||
        static_cast<size_t>(row) >= db.relation(rel).num_rows()) {
      return Status::InvalidArgument("example references unknown tuple");
    }
  }

  const std::vector<TupleEdge> edges = LinkTuples(db, example);
  if (edges.size() > options_.max_edges) {
    return Status::ResourceExhausted(
        StrFormat("example induces %zu candidate joins (max %zu)",
                  edges.size(), options_.max_edges));
  }

  // Per target column: the (tuple index, attribute) cells whose value
  // matches the example's target value exactly.
  std::vector<std::vector<std::pair<size_t, storage::AttributeId>>>
      cell_candidates(example.target_tuple.size());
  for (size_t col = 0; col < example.target_tuple.size(); ++col) {
    const std::string& want = example.target_tuple[col];
    if (want.empty()) continue;
    for (size_t t = 0; t < n; ++t) {
      const auto& [rel_id, row] = example.source_tuples[t];
      const storage::Relation& rel = db.relation(rel_id);
      for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
        const storage::ValueView v =
            rel.at(row, static_cast<storage::AttributeId>(a));
        if (!v.is_null() && v.ToDisplayString() == want) {
          cell_candidates[col].emplace_back(
              t, static_cast<storage::AttributeId>(a));
        }
      }
    }
    if (cell_candidates[col].empty()) {
      return std::vector<core::MappingPath>{};  // unfittable example
    }
  }

  std::vector<core::MappingPath> out;
  std::set<std::string> seen;

  // Enumerate spanning trees (n is tiny: the tuples one user example
  // contains), then every projection assignment per tree.
  std::vector<size_t> subset;
  std::function<void(size_t)> choose_edges = [&](size_t start) {
    if (subset.size() + 1 == n) {
      if (!IsSpanningTree(edges, subset, n)) return;
      // Root the tree at tuple 0 and convert to a MappingPath.
      std::vector<std::vector<size_t>> incident(n);
      for (size_t e : subset) {
        incident[edges[e].a].push_back(e);
        incident[edges[e].b].push_back(e);
      }
      MappingPath base =
          MappingPath::SingleVertex(example.source_tuples[0].first);
      std::vector<VertexId> vertex_of_tuple(n, core::kNoVertex);
      vertex_of_tuple[0] = 0;
      std::vector<bool> placed(n, false);
      placed[0] = true;
      std::function<void(size_t)> attach = [&](size_t t) {
        for (size_t e : incident[t]) {
          const TupleEdge& te = edges[e];
          const size_t other = te.a == t ? te.b : te.a;
          if (placed[other]) continue;
          placed[other] = true;
          const bool other_is_from = (te.a == other) == te.a_is_from_side;
          vertex_of_tuple[other] = base.AddVertex(
              example.source_tuples[other].first, vertex_of_tuple[t], te.fk,
              other_is_from);
          attach(other);
        }
      };
      attach(0);
      for (size_t t = 0; t < n; ++t) {
        if (!placed[t]) return;  // should not happen for a spanning tree
      }

      // Projection assignments: product over the specified columns.
      std::vector<size_t> specified;
      for (size_t col = 0; col < cell_candidates.size(); ++col) {
        if (!example.target_tuple[col].empty()) specified.push_back(col);
      }
      std::function<void(size_t, MappingPath)> assign =
          [&](size_t idx, MappingPath partial) {
            if (idx == specified.size()) {
              if (seen.insert(partial.Canonical()).second) {
                out.push_back(std::move(partial));
              }
              return;
            }
            const size_t col = specified[idx];
            for (const auto& [tuple_idx, attr] : cell_candidates[col]) {
              MappingPath next = partial;
              next.AddProjection(static_cast<int>(col),
                                 vertex_of_tuple[tuple_idx], attr);
              assign(idx + 1, std::move(next));
            }
          };
      assign(0, base);
      return;
    }
    for (size_t e = start; e < edges.size(); ++e) {
      subset.push_back(e);
      choose_edges(e + 1);
      subset.pop_back();
    }
  };
  // (For n == 1 the first call immediately hits the spanning-tree base
  // case with an empty edge subset.)
  choose_edges(0);
  return out;
}

Result<std::vector<core::MappingPath>> EireneFitter::Fit(
    const std::vector<DataExample>& examples) const {
  if (examples.empty()) {
    return Status::InvalidArgument("at least one data example is required");
  }
  std::vector<core::MappingPath> fitted;
  for (size_t i = 0; i < examples.size(); ++i) {
    MW_ASSIGN_OR_RETURN(std::vector<core::MappingPath> one,
                        FitOne(examples[i]));
    if (i == 0) {
      fitted = std::move(one);
    } else {
      std::set<std::string> canon;
      for (const core::MappingPath& mp : one) canon.insert(mp.Canonical());
      fitted.erase(std::remove_if(fitted.begin(), fitted.end(),
                                  [&](const core::MappingPath& mp) {
                                    return canon.count(mp.Canonical()) == 0;
                                  }),
                   fitted.end());
    }
    if (fitted.empty()) break;
  }
  return fitted;
}

}  // namespace mweaver::baselines
