#include "core/tuple_path.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/path_internal.h"

namespace mweaver::core {

using internal::BuildAdjacency;

TuplePath TuplePath::SingleVertex(storage::RelationId relation,
                                  storage::RowId row,
                                  std::pmr::memory_resource* mr) {
  TuplePath path(mr != nullptr ? mr : std::pmr::get_default_resource());
  path.relations_.push_back(relation);
  path.parents_.push_back(kNoVertex);
  path.fks_.push_back(-1);
  path.from_side_.push_back(0);
  path.rows_.push_back(row);
  return path;
}

VertexId TuplePath::AddVertex(storage::RelationId relation, storage::RowId row,
                              VertexId parent, storage::ForeignKeyId fk,
                              bool is_from_side) {
  MW_CHECK_GE(parent, 0);
  MW_CHECK_LT(static_cast<size_t>(parent), relations_.size());
  relations_.push_back(relation);
  parents_.push_back(parent);
  fks_.push_back(fk);
  from_side_.push_back(is_from_side ? 1 : 0);
  rows_.push_back(row);
  return static_cast<VertexId>(relations_.size() - 1);
}

void TuplePath::AddProjection(int target_column, VertexId vertex,
                              storage::AttributeId attribute,
                              double match_score) {
  MW_CHECK(FindProjection(target_column) == nullptr)
      << "duplicate projection for target column " << target_column;
  MW_CHECK_GE(target_column, 0);
  MW_CHECK_GE(vertex, 0);
  MW_CHECK_LT(static_cast<size_t>(vertex), relations_.size());
  // Insert keeping (projections_, match_scores_) sorted by target column.
  size_t pos = 0;
  while (pos < projections_.size() &&
         projections_[pos].target_column < target_column) {
    ++pos;
  }
  projections_.insert(projections_.begin() + static_cast<ptrdiff_t>(pos),
                      Projection{target_column, vertex, attribute});
  match_scores_.insert(match_scores_.begin() + static_cast<ptrdiff_t>(pos),
                       match_score);
}

const Projection* TuplePath::FindProjection(int target_column) const {
  for (const Projection& p : projections_) {
    if (p.target_column == target_column) return &p;
  }
  return nullptr;
}

std::vector<int> TuplePath::TargetColumns() const {
  std::vector<int> cols;
  cols.reserve(projections_.size());
  for (const Projection& p : projections_) cols.push_back(p.target_column);
  return cols;
}

uint64_t TuplePath::ColumnMask() const {
  uint64_t mask = 0;
  for (const Projection& p : projections_) {
    MW_CHECK_LT(p.target_column, kMaxTargetColumns);
    mask |= uint64_t{1} << p.target_column;
  }
  return mask;
}

double TuplePath::MeanMatchScore() const {
  if (match_scores_.empty()) return 1.0;
  double total = 0.0;
  for (double s : match_scores_) total += s;
  return total / static_cast<double>(match_scores_.size());
}

MappingPath TuplePath::ExtractMappingPath() const {
  MappingPath mp;
  if (relations_.empty()) return mp;
  mp = MappingPath::SingleVertex(relations_[0]);
  for (size_t i = 1; i < relations_.size(); ++i) {
    mp.AddVertex(relations_[i], parents_[i], fks_[i], from_side_[i] != 0);
  }
  for (const Projection& p : projections_) {
    mp.AddProjection(p.target_column, p.vertex, p.attribute);
  }
  return mp;
}

std::vector<std::string> TuplePath::ProjectTargetValues(
    const storage::Database& db) const {
  std::vector<std::string> values;
  values.reserve(projections_.size());
  for (const Projection& p : projections_) {
    const storage::Relation& rel =
        db.relation(relations_[static_cast<size_t>(p.vertex)]);
    values.push_back(
        rel.at(rows_[static_cast<size_t>(p.vertex)], p.attribute)
            .ToDisplayString());
  }
  return values;
}

namespace {

// One direction of a tree edge in the CSR adjacency the key is built from.
struct HalfEdge {
  VertexId to;
  storage::ForeignKeyId fk;
  unsigned char to_is_from_side;
};

// Per-thread buffers of Canonical(): after the first few keys, computing
// one allocates nothing.
struct KeyScratch {
  std::vector<uint32_t> first;    // CSR offsets into `edges`, n + 1 entries
  std::vector<HalfEdge> edges;    // 2 (n - 1) half-edges
  std::vector<uint32_t> cursor;   // CSR fill positions, then live degrees
  std::vector<VertexId> layer;    // leaf-peeling frontier
  std::vector<VertexId> next_layer;
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, length) stack
  std::string children;           // sorted-children staging area
  std::string alt;                // the second center's encoding
};

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

// The key is the AHU encoding of the tree rooted at its center, in binary:
//   vertex  = relation:i32 row:i64 #proj:u32 (column:i32 attribute:i32)*
//             #children:u32 child*
//   child   = fk:i32 child_is_from_side:u8 vertex
// with a vertex's children sorted bytewise. Every variable-length part is
// preceded by its count, so the code is prefix-free and equal keys mean
// equal labeled trees. Centers are invariant under isomorphism, so rooting
// at the center (the smaller of the two encodings when there are two)
// replaces trying every rooting.
void TuplePath::Canonical(std::string* out) const {
  thread_local KeyScratch s;
  out->clear();
  const size_t n = relations_.size();
  if (n == 0) return;

  // Undirected CSR adjacency from the parent lane.
  s.first.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] == kNoVertex) continue;
    ++s.first[i + 1];
    ++s.first[static_cast<size_t>(parents_[i]) + 1];
  }
  for (size_t i = 0; i < n; ++i) s.first[i + 1] += s.first[i];
  s.cursor.assign(s.first.begin(), s.first.end() - 1);
  s.edges.resize(s.first[n]);
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] == kNoVertex) continue;
    const size_t parent = static_cast<size_t>(parents_[i]);
    s.edges[s.cursor[parent]++] =
        HalfEdge{static_cast<VertexId>(i), fks_[i], from_side_[i]};
    s.edges[s.cursor[i]++] = HalfEdge{parents_[i], fks_[i],
                                      static_cast<unsigned char>(
                                          from_side_[i] == 0 ? 1 : 0)};
  }

  // Centers: peel leaves layer by layer until one or two vertices remain.
  s.layer.clear();
  for (size_t i = 0; i < n; ++i) {
    s.cursor[i] = s.first[i + 1] - s.first[i];
    if (s.cursor[i] <= 1) s.layer.push_back(static_cast<VertexId>(i));
  }
  for (size_t remaining = n; remaining > 2;) {
    remaining -= s.layer.size();
    s.next_layer.clear();
    for (const VertexId leaf : s.layer) {
      const size_t v = static_cast<size_t>(leaf);
      for (uint32_t e = s.first[v]; e < s.first[v + 1]; ++e) {
        const size_t u = static_cast<size_t>(s.edges[e].to);
        if (--s.cursor[u] == 1) s.next_layer.push_back(s.edges[e].to);
      }
    }
    s.layer.swap(s.next_layer);
  }
  MW_CHECK(s.layer.size() == 1 || s.layer.size() == 2);

  // Rooted encoding, children sorted in place: each child is encoded after
  // its edge label at the end of `dst`, then the run of children is
  // rewritten in sorted order.
  const auto encode = [&](auto& self, VertexId v, VertexId from,
                          std::string* dst) -> void {
    const size_t vi = static_cast<size_t>(v);
    Put(dst, relations_[vi]);
    Put(dst, rows_[vi]);
    uint32_t num_projections = 0;
    for (const Projection& p : projections_) num_projections += p.vertex == v;
    Put(dst, num_projections);
    for (const Projection& p : projections_) {
      if (p.vertex != v) continue;
      Put(dst, static_cast<int32_t>(p.target_column));
      Put(dst, p.attribute);
    }
    const uint32_t degree = s.first[vi + 1] - s.first[vi];
    Put(dst, static_cast<uint32_t>(from == kNoVertex ? degree : degree - 1));
    const size_t base = s.spans.size();
    const size_t run = dst->size();  // children occupy [run, dst->size())
    for (uint32_t e = s.first[vi]; e < s.first[vi + 1]; ++e) {
      const HalfEdge edge = s.edges[e];
      if (edge.to == from) continue;
      const size_t begin = dst->size();
      Put(dst, edge.fk);
      Put(dst, edge.to_is_from_side);
      self(self, edge.to, v, dst);
      s.spans.emplace_back(begin, dst->size() - begin);
    }
    const auto spans_begin = s.spans.begin() + static_cast<ptrdiff_t>(base);
    const auto bytewise_less = [dst](const std::pair<size_t, size_t>& a,
                                     const std::pair<size_t, size_t>& b) {
      return std::string_view(dst->data() + a.first, a.second) <
             std::string_view(dst->data() + b.first, b.second);
    };
    if (!std::is_sorted(spans_begin, s.spans.end(), bytewise_less)) {
      std::sort(spans_begin, s.spans.end(), bytewise_less);
      s.children.assign(dst->data() + run, dst->size() - run);
      size_t at = run;
      for (auto it = spans_begin; it != s.spans.end(); ++it) {
        std::memcpy(dst->data() + at, s.children.data() + (it->first - run),
                    it->second);
        at += it->second;
      }
    }
    s.spans.resize(base);
  };
  encode(encode, s.layer[0], kNoVertex, out);
  if (s.layer.size() == 2) {
    s.alt.clear();
    encode(encode, s.layer[1], kNoVertex, &s.alt);
    if (s.alt < *out) out->swap(s.alt);
  }
}

std::string TuplePath::Canonical() const {
  std::string key;
  Canonical(&key);
  return key;
}

bool TuplePath::IsConsistent(const storage::Database& db) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i] < 0 ||
        static_cast<size_t>(relations_[i]) >= db.num_relations()) {
      return false;
    }
    const storage::Relation& rel = db.relation(relations_[i]);
    if (rows_[i] < 0 || static_cast<size_t>(rows_[i]) >= rel.num_rows()) {
      return false;
    }
    if (parents_[i] == kNoVertex) continue;
    // Join condition between this vertex and its parent.
    const bool is_from = from_side_[i] != 0;
    const storage::ForeignKey& fk =
        db.foreign_keys()[static_cast<size_t>(fks_[i])];
    const storage::AttributeId my_attr =
        is_from ? fk.from_attribute : fk.to_attribute;
    const storage::AttributeId parent_attr =
        is_from ? fk.to_attribute : fk.from_attribute;
    const size_t parent = static_cast<size_t>(parents_[i]);
    const storage::ValueView mine = rel.at(rows_[i], my_attr);
    const storage::ValueView theirs =
        db.relation(relations_[parent]).at(rows_[parent], parent_attr);
    if (mine.is_null() || mine != theirs) return false;
  }
  // Normal form: no two same-(fk, orientation) neighbors of a vertex hold
  // the same tuple.
  const auto adj = BuildAdjacency(parents(), fks(), from_sides());
  for (size_t u = 0; u < adj.size(); ++u) {
    const auto& edges = adj[u];
    for (size_t a = 0; a < edges.size(); ++a) {
      for (size_t b = a + 1; b < edges.size(); ++b) {
        if (edges[a].fk == edges[b].fk &&
            edges[a].neighbor_is_from_side == edges[b].neighbor_is_from_side &&
            relations_[static_cast<size_t>(edges[a].neighbor)] ==
                relations_[static_cast<size_t>(edges[b].neighbor)] &&
            row(edges[a].neighbor) == row(edges[b].neighbor)) {
          return false;
        }
      }
    }
  }
  return true;
}

namespace {

// The neighbor of `at` in `path`, other than `came_from`, that matches
// (relation, row, fk, orientation); kNoVertex if none. Neighbors are tried
// in adjacency-list order: the parent first, then children by index.
VertexId FindMergeTarget(const TuplePath& path, VertexId at,
                         VertexId came_from, storage::RelationId relation,
                         storage::RowId row, storage::ForeignKeyId fk,
                         bool neighbor_is_from) {
  const std::span<const storage::RelationId> relations = path.relations();
  const std::span<const VertexId> parents = path.parents();
  const std::span<const storage::ForeignKeyId> fks = path.fks();
  const std::span<const unsigned char> from_sides = path.from_sides();
  const size_t a = static_cast<size_t>(at);
  const VertexId up = parents[a];
  if (up != kNoVertex && up != came_from && fks[a] == fk &&
      (from_sides[a] == 0) == neighbor_is_from &&
      relations[static_cast<size_t>(up)] == relation && path.row(up) == row) {
    return up;
  }
  for (size_t c = a + 1; c < parents.size(); ++c) {
    const VertexId child = static_cast<VertexId>(c);
    if (parents[c] != at || child == came_from) continue;
    if (fks[c] == fk && (from_sides[c] != 0) == neighbor_is_from &&
        relations[c] == relation && path.row(child) == row) {
      return child;
    }
  }
  return kNoVertex;
}

}  // namespace

void TuplePath::AssignFrom(const TuplePath& other) {
  relations_.assign(other.relations_.begin(), other.relations_.end());
  parents_.assign(other.parents_.begin(), other.parents_.end());
  fks_.assign(other.fks_.begin(), other.fks_.end());
  from_side_.assign(other.from_side_.begin(), other.from_side_.end());
  rows_.assign(other.rows_.begin(), other.rows_.end());
  projections_.assign(other.projections_.begin(), other.projections_.end());
  match_scores_.assign(other.match_scores_.begin(),
                       other.match_scores_.end());
}

bool TuplePath::WeaveInto(const TuplePath& base, const TuplePath& ptp,
                          TuplePath* out) {
  MW_CHECK_EQ(ptp.size(), 2u);
  MW_CHECK(out != &base && out != &ptp);
  // Identify the common key k and the new key j.
  const uint64_t base_cols = base.ColumnMask();
  int common_key = -1;
  int new_key = -1;
  size_t ptp_new_index = 0;
  for (size_t i = 0; i < ptp.projections_.size(); ++i) {
    const int col = ptp.projections_[i].target_column;
    MW_CHECK_LT(col, kMaxTargetColumns);
    if ((base_cols >> col) & 1) {
      MW_CHECK_EQ(common_key, -1)
          << "weave requires exactly one common projection key";
      common_key = col;
    } else {
      new_key = col;
      ptp_new_index = i;
    }
  }
  MW_CHECK_NE(common_key, -1);
  MW_CHECK_NE(new_key, -1);

  const VertexId fuse_base = base.FindProjection(common_key)->vertex;
  const VertexId fuse_ptp = ptp.FindProjection(common_key)->vertex;
  const Projection& ptp_new = ptp.projections_[ptp_new_index];

  // Line 4 of Algorithm 6: the fused vertices must be the same tuple.
  if (base.relations_[static_cast<size_t>(fuse_base)] !=
          ptp.relations_[static_cast<size_t>(fuse_ptp)] ||
      base.row(fuse_base) != ptp.row(fuse_ptp)) {
    return false;
  }
  out->AssignFrom(base);

  // The chain of ptp vertices from the fuse point to the new projection
  // climbs from fuse_ptp to the lowest common ancestor of the two, then
  // descends to ptp_new.vertex.
  const std::span<const VertexId> up = ptp.parents();
  const auto depth = [&](VertexId v) {
    size_t d = 0;
    for (; up[static_cast<size_t>(v)] != kNoVertex;
         v = up[static_cast<size_t>(v)]) {
      ++d;
    }
    return d;
  };
  VertexId lca = fuse_ptp;
  VertexId other = ptp_new.vertex;
  size_t lca_depth = depth(lca);
  size_t other_depth = depth(other);
  for (; lca_depth > other_depth; --lca_depth) {
    lca = up[static_cast<size_t>(lca)];
  }
  for (; other_depth > lca_depth; --other_depth) {
    other = up[static_cast<size_t>(other)];
  }
  while (lca != other) {
    lca = up[static_cast<size_t>(lca)];
    other = up[static_cast<size_t>(other)];
    MW_CHECK(lca != kNoVertex && other != kNoVertex)
        << "vertices " << fuse_ptp << " and " << ptp_new.vertex
        << " are not connected";
  }

  VertexId cur = fuse_base;     // current merge position in `out`
  VertexId prev = kNoVertex;    // the vertex the merge walk came from
  bool grafting = false;
  // Walks one chain edge to ptp vertex `pv`; (fk, pv_is_from) describe the
  // edge from pv's side.
  const auto step = [&](VertexId pv, storage::ForeignKeyId fk,
                        bool pv_is_from) {
    MW_CHECK_NE(fk, -1);
    const storage::RelationId relation =
        ptp.relations_[static_cast<size_t>(pv)];
    if (!grafting) {
      const VertexId merged = FindMergeTarget(*out, cur, prev, relation,
                                              ptp.row(pv), fk, pv_is_from);
      if (merged != kNoVertex) {
        prev = cur;
        cur = merged;
        return;
      }
      grafting = true;
    }
    // Graft pv as a new child of cur.
    cur = out->AddVertex(relation, ptp.row(pv), cur, fk, pv_is_from);
  };
  for (VertexId v = fuse_ptp; v != lca; v = up[static_cast<size_t>(v)]) {
    const size_t i = static_cast<size_t>(v);
    step(up[i], ptp.fks_[i], ptp.from_side_[i] == 0);
  }
  for (VertexId v = lca; v != ptp_new.vertex;) {
    VertexId child = ptp_new.vertex;
    while (up[static_cast<size_t>(child)] != v) {
      child = up[static_cast<size_t>(child)];
    }
    const size_t i = static_cast<size_t>(child);
    step(child, ptp.fks_[i], ptp.from_side_[i] != 0);
    v = child;
  }

  // The chain end now corresponds to `cur`; project the new key there.
  out->AddProjection(new_key, cur, ptp_new.attribute,
                     ptp.match_scores_[ptp_new_index]);
  return true;
}

std::optional<TuplePath> TuplePath::Weave(const TuplePath& base,
                                          const TuplePath& ptp,
                                          std::pmr::memory_resource* mr) {
  TuplePath result(mr != nullptr ? mr : std::pmr::get_default_resource());
  if (!WeaveInto(base, ptp, &result)) return std::nullopt;
  return result;
}

std::string TuplePath::ToString(const storage::Database& db) const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const storage::Relation& rel = db.relation(relations_[i]);
    std::string s = rel.name() + "#" + std::to_string(rows_[i]);
    for (const Projection& p : projections_) {
      if (p.vertex == static_cast<VertexId>(i)) {
        s += StrFormat("[%d:%s]", p.target_column,
                       rel.schema().attribute(p.attribute).name.c_str());
      }
    }
    parts.push_back(std::move(s));
  }
  return Join(parts, " - ");
}

}  // namespace mweaver::core
