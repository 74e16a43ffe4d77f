// Tests for MappingPath / TuplePath (Definitions 3-5) and Weave (Alg 6).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/mapping_path.h"
#include "core/tuple_path.h"
#include "reference_weave.h"
#include "test_util.h"

namespace mweaver::core {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using ::mweaver::testing::ReferenceCanonical;
using storage::Database;

// Figure-2 catalog constants (see MakeFigure2Db): relations movie=0,
// person=1, director=2, writer=3; FKs 0: director.mid->movie.mid,
// 1: director.pid->person.pid, 2: writer.mid->movie.mid,
// 3: writer.pid->person.pid. Attribute 1 is title/name.
constexpr storage::RelationId kMovie = 0;
constexpr storage::RelationId kPerson = 1;
constexpr storage::RelationId kDirector = 2;
constexpr storage::RelationId kWriter = 3;

// movie[0:title] - director - person[1:name], rooted at movie.
MappingPath DirectorChain() {
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 0, /*is_from_side=*/true);
  const VertexId v_per = p.AddVertex(kPerson, v_dir, 1, false);
  p.AddProjection(0, 0, 1);
  p.AddProjection(1, v_per, 1);
  return p;
}

// The same logical path rooted at person instead.
MappingPath DirectorChainFromPerson() {
  MappingPath p = MappingPath::SingleVertex(kPerson);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 1, true);
  const VertexId v_mov = p.AddVertex(kMovie, v_dir, 0, false);
  p.AddProjection(0, v_mov, 1);
  p.AddProjection(1, 0, 1);
  return p;
}

MappingPath WriterChain() {
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_wr = p.AddVertex(kWriter, 0, 2, true);
  const VertexId v_per = p.AddVertex(kPerson, v_wr, 3, false);
  p.AddProjection(0, 0, 1);
  p.AddProjection(1, v_per, 1);
  return p;
}

// ----------------------------------------------------------- MappingPath --

TEST(MappingPathTest, SizesAndColumns) {
  const MappingPath p = DirectorChain();
  EXPECT_EQ(p.num_vertices(), 3u);
  EXPECT_EQ(p.num_joins(), 2u);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.TargetColumns(), (std::vector<int>{0, 1}));
  EXPECT_NE(p.FindProjection(0), nullptr);
  EXPECT_EQ(p.FindProjection(7), nullptr);
}

TEST(MappingPathTest, CanonicalInvariantUnderRerooting) {
  EXPECT_EQ(DirectorChain().Canonical(),
            DirectorChainFromPerson().Canonical());
  EXPECT_EQ(DirectorChain(), DirectorChainFromPerson());
}

TEST(MappingPathTest, CanonicalDistinguishesEdgeAndProjection) {
  EXPECT_NE(DirectorChain().Canonical(), WriterChain().Canonical());
  // Same structure, different projected column index.
  MappingPath p = MappingPath::SingleVertex(kMovie);
  p.AddProjection(0, 0, 1);
  MappingPath q = MappingPath::SingleVertex(kMovie);
  q.AddProjection(1, 0, 1);
  EXPECT_NE(p.Canonical(), q.Canonical());
}

TEST(MappingPathTest, TerminalsProjected) {
  EXPECT_TRUE(DirectorChain().TerminalsProjected());

  // Drop the person-side projection: person becomes an unprojected leaf.
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 0, true);
  p.AddVertex(kPerson, v_dir, 1, false);
  p.AddProjection(0, 0, 1);
  EXPECT_FALSE(p.TerminalsProjected());

  // Single vertex without projection: not terminal-projected.
  MappingPath single = MappingPath::SingleVertex(kMovie);
  EXPECT_FALSE(single.TerminalsProjected());
  single.AddProjection(0, 0, 1);
  EXPECT_TRUE(single.TerminalsProjected());
}

TEST(MappingPathTest, DegreeAndChildren) {
  const MappingPath p = DirectorChain();
  EXPECT_EQ(p.Degree(0), 1u);  // movie: one edge to director
  EXPECT_EQ(p.Degree(1), 2u);  // director: movie + person
  EXPECT_EQ(p.Degree(2), 1u);
  EXPECT_EQ(p.Children(0), (std::vector<VertexId>{1}));
  EXPECT_EQ(p.Children(1), (std::vector<VertexId>{2}));
  EXPECT_TRUE(p.Children(2).empty());
}

TEST(MappingPathTest, ToStringNamesRelationsAndAttributes) {
  const Database db = MakeFigure2Db();
  const std::string s = DirectorChain().ToString(db);
  EXPECT_NE(s.find("movie"), std::string::npos);
  EXPECT_NE(s.find("director"), std::string::npos);
  EXPECT_NE(s.find("person"), std::string::npos);
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

// ------------------------------------------------------------- TuplePath --

// Instantiates the director chain for movie m, director row d, person p.
TuplePath DirectorTuplePath(storage::RowId m, storage::RowId d,
                            storage::RowId p, int col_a = 0, int col_b = 1) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, m);
  const VertexId v_dir = tp.AddVertex(kDirector, d, 0, 0, true);
  const VertexId v_per = tp.AddVertex(kPerson, p, v_dir, 1, false);
  tp.AddProjection(col_a, 0, 1, 1.0);
  tp.AddProjection(col_b, v_per, 1, 1.0);
  return tp;
}

TuplePath WriterTuplePath(storage::RowId m, storage::RowId w,
                          storage::RowId p, int col_a, int col_b) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, m);
  const VertexId v_wr = tp.AddVertex(kWriter, w, 0, 2, true);
  const VertexId v_per = tp.AddVertex(kPerson, p, v_wr, 3, false);
  tp.AddProjection(col_a, 0, 1, 1.0);
  tp.AddProjection(col_b, v_per, 1, 1.0);
  return tp;
}

TEST(TuplePathTest, ExtractMappingPathDropsRows) {
  const TuplePath tp = DirectorTuplePath(0, 0, 0);
  EXPECT_EQ(tp.ExtractMappingPath().Canonical(), DirectorChain().Canonical());
}

TEST(TuplePathTest, CanonicalIncludesRows) {
  EXPECT_NE(DirectorTuplePath(0, 0, 0).Canonical(),
            DirectorTuplePath(1, 1, 1).Canonical());
  EXPECT_EQ(DirectorTuplePath(0, 0, 0).Canonical(),
            DirectorTuplePath(0, 0, 0).Canonical());
}

TEST(TuplePathTest, ProjectTargetValues) {
  const Database db = MakeFigure2Db();
  const TuplePath tp = DirectorTuplePath(0, 0, 0);
  EXPECT_EQ(tp.ProjectTargetValues(db),
            (std::vector<std::string>{"Avatar", "James Cameron"}));
}

TEST(TuplePathTest, MeanMatchScore) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, 0);
  tp.AddProjection(0, 0, 1, 0.5);
  tp.AddProjection(1, 0, 1, 1.0);
  EXPECT_DOUBLE_EQ(tp.MeanMatchScore(), 0.75);
}

// ----------------------------------------------------------------- Weave --

TEST(WeaveTest, GraftCreatesBranch) {
  // Base: movie#0 -director- person#0 covering {0,1}.
  // Pairwise: movie#0 -writer- person#0 covering {0,2}.
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  const TuplePath ptp = WriterTuplePath(0, 0, 0, 0, 2);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->size(), 3u);
  EXPECT_EQ(woven->num_vertices(), 5u);  // writer+person grafted
  EXPECT_EQ(woven->TargetColumns(), (std::vector<int>{0, 1, 2}));
}

TEST(WeaveTest, MergeReusesExistingVertices) {
  // Base covers {0,1} over movie#0-director#0-person#0. The pairwise path
  // person#0 -director#0- movie#0 covers {1,2} with 2 projected from the
  // movie end; every vertex coincides, so weaving should merge fully and
  // only add the projection.
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  TuplePath ptp = TuplePath::SingleVertex(kPerson, 0);
  const VertexId v_dir = ptp.AddVertex(kDirector, 0, 0, 1, true);
  const VertexId v_mov = ptp.AddVertex(kMovie, 0, v_dir, 0, false);
  ptp.AddProjection(1, 0, 1, 1.0);
  ptp.AddProjection(2, v_mov, 1, 1.0);

  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->size(), 3u);
  EXPECT_EQ(woven->num_vertices(), 3u);  // fully merged
}

TEST(WeaveTest, FuseFailsOnDifferentTuples) {
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  // Pairwise anchored on a different movie tuple.
  const TuplePath ptp = WriterTuplePath(1, 1, 2, 0, 2);
  EXPECT_FALSE(TuplePath::Weave(base, ptp).has_value());
}

TEST(WeaveTest, SingleVertexPairwiseAddsProjectionInPlace) {
  // Both samples live in the same movie tuple (e.g. title + release date).
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  TuplePath ptp = TuplePath::SingleVertex(kMovie, 0);
  ptp.AddProjection(0, 0, 1, 1.0);
  ptp.AddProjection(2, 0, 1, 0.5);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->num_vertices(), 3u);
  EXPECT_EQ(woven->size(), 3u);
  const Projection* p2 = woven->FindProjection(2);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->vertex, 0);  // landed on the fused movie vertex
}

TEST(WeaveTest, PartialMergeThenGraft) {
  // Base: movie#1 - director#1 - person#1, covering {0,1}.
  // Pairwise: movie#1 - director#1 - person#1 ... same chain but projecting
  // column 2 from person: full merge expected. Then a variant with a
  // different director row must graft below the movie vertex.
  const TuplePath base = DirectorTuplePath(1, 1, 1);

  TuplePath same = DirectorTuplePath(1, 1, 1, 0, 2);
  auto merged = TuplePath::Weave(base, same);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->num_vertices(), 3u);

  TuplePath different = DirectorTuplePath(1, 2, 3, 0, 2);
  auto grafted = TuplePath::Weave(base, different);
  ASSERT_TRUE(grafted.has_value());
  EXPECT_EQ(grafted->num_vertices(), 5u);
}

TEST(WeaveTest, WovenPathsAreInstanceConsistent) {
  const Database db = MakeFigure2Db();
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  EXPECT_TRUE(base.IsConsistent(db));

  const TuplePath ptp = WriterTuplePath(0, 0, 0, 0, 2);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_TRUE(woven->IsConsistent(db));

  // A fabricated path with a broken join is flagged.
  TuplePath broken = TuplePath::SingleVertex(kMovie, 0);
  const VertexId v_dir = broken.AddVertex(kDirector, 1, 0, 0, true);
  broken.AddVertex(kPerson, 0, v_dir, 1, false);
  broken.AddProjection(0, 0, 1, 1.0);
  broken.AddProjection(1, 2, 1, 1.0);
  // director row 1 joins movie#1, not movie#0.
  EXPECT_FALSE(broken.IsConsistent(db));

  // Out-of-range rows are flagged too.
  TuplePath out_of_range = TuplePath::SingleVertex(kMovie, 99);
  out_of_range.AddProjection(0, 0, 1, 1.0);
  EXPECT_FALSE(out_of_range.IsConsistent(db));
}

TEST(WeaveTest, ResultEqualRegardlessOfWeaveOrder) {
  // Weaving {0,1} then {0,2} vs {0,2} then {0,1} must produce canonically
  // identical complete paths.
  const TuplePath d = DirectorTuplePath(0, 0, 0, 0, 1);
  const TuplePath w = WriterTuplePath(0, 0, 0, 0, 2);
  TuplePath d2 = DirectorTuplePath(0, 0, 0, 0, 1);

  const auto a = TuplePath::Weave(d, w);
  const auto b = TuplePath::Weave(w, d2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->Canonical(), b->Canonical());
}

// ------------------------------------------ Canonical-encoding fuzzing --

namespace {

// A synthetic random labeled tree (ids need not reference a real catalog:
// canonicalization is purely structural).
struct RandomTree {
  MappingPath path;
  // Undirected edge list: (a, b, fk, b_is_from_side).
  struct Edge {
    VertexId a;
    VertexId b;
    storage::ForeignKeyId fk;
    bool b_is_from;
  };
  std::vector<Edge> edges;
};

RandomTree MakeRandomTree(Rng* rng, size_t n) {
  RandomTree t;
  t.path =
      MappingPath::SingleVertex(static_cast<storage::RelationId>(
          rng->UniformInt(0, 4)));
  for (size_t i = 1; i < n; ++i) {
    const VertexId parent =
        static_cast<VertexId>(rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    const auto fk = static_cast<storage::ForeignKeyId>(rng->UniformInt(0, 3));
    const bool is_from = rng->Bernoulli(0.5);
    const VertexId child = t.path.AddVertex(
        static_cast<storage::RelationId>(rng->UniformInt(0, 4)), parent, fk,
        is_from);
    t.edges.push_back(RandomTree::Edge{parent, child, fk, is_from});
  }
  // Random projections; every vertex gets one with probability 1/2, and
  // vertex 0 always does (so the path is non-degenerate).
  int column = 0;
  for (size_t v = 0; v < n; ++v) {
    if (v == 0 || rng->Bernoulli(0.5)) {
      t.path.AddProjection(column++, static_cast<VertexId>(v),
                           static_cast<storage::AttributeId>(
                               rng->UniformInt(0, 3)));
    }
  }
  return t;
}

// Rebuilds the same logical tree rooted at `root` (BFS re-rooting).
MappingPath Reroot(const RandomTree& t, VertexId root) {
  const size_t n = t.path.num_vertices();
  // Undirected adjacency with per-edge metadata.
  struct Adj {
    VertexId neighbor;
    storage::ForeignKeyId fk;
    bool neighbor_is_from;
  };
  std::vector<std::vector<Adj>> adj(n);
  for (const RandomTree::Edge& e : t.edges) {
    adj[static_cast<size_t>(e.a)].push_back(Adj{e.b, e.fk, e.b_is_from});
    adj[static_cast<size_t>(e.b)].push_back(Adj{e.a, e.fk, !e.b_is_from});
  }
  MappingPath out = MappingPath::SingleVertex(t.path.vertex(root).relation);
  std::vector<VertexId> new_id(n, kNoVertex);
  new_id[static_cast<size_t>(root)] = 0;
  std::deque<VertexId> queue{root};
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (const Adj& e : adj[static_cast<size_t>(u)]) {
      if (new_id[static_cast<size_t>(e.neighbor)] != kNoVertex) continue;
      new_id[static_cast<size_t>(e.neighbor)] = out.AddVertex(
          t.path.vertex(e.neighbor).relation,
          new_id[static_cast<size_t>(u)], e.fk, e.neighbor_is_from);
      queue.push_back(e.neighbor);
    }
  }
  for (const Projection& p : t.path.projections()) {
    out.AddProjection(p.target_column,
                      new_id[static_cast<size_t>(p.vertex)], p.attribute);
  }
  return out;
}

}  // namespace

TEST(CanonicalFuzzTest, InvariantUnderRerooting) {
  Rng rng(20120520);
  for (int round = 0; round < 200; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
    const RandomTree tree = MakeRandomTree(&rng, n);
    const std::string canonical = tree.path.Canonical();
    for (size_t root = 0; root < n; ++root) {
      const MappingPath rerooted = Reroot(tree, static_cast<VertexId>(root));
      ASSERT_EQ(rerooted.Canonical(), canonical)
          << "round " << round << " root " << root;
    }
  }
}

TEST(CanonicalFuzzTest, DistinguishesMutations) {
  // Mutating any label component (relation, fk, orientation, projection)
  // must change the canonical form.
  Rng rng(77);
  size_t distinguished = 0;
  for (int round = 0; round < 100; ++round) {
    const RandomTree tree = MakeRandomTree(&rng, 5);
    // Re-build with one vertex's relation changed.
    MappingPath changed = MappingPath::SingleVertex(
        static_cast<storage::RelationId>(
            tree.path.vertex(0).relation + 100));
    for (size_t i = 1; i < tree.path.num_vertices(); ++i) {
      const PathVertex& v = tree.path.vertex(static_cast<VertexId>(i));
      changed.AddVertex(v.relation, v.parent, v.fk_to_parent, v.is_from_side);
    }
    for (const Projection& p : tree.path.projections()) {
      changed.AddProjection(p.target_column, p.vertex, p.attribute);
    }
    if (changed.Canonical() != tree.path.Canonical()) ++distinguished;
  }
  EXPECT_EQ(distinguished, 100u);
}

// --------------------------------- TuplePath canonical-key fuzzing --

namespace {

// A tuple-path tree as plain lanes, so tests can rebuild it with one label
// changed or under another root. Labels come from a tiny alphabet: repeated
// (relation, row) labels and symmetric subtrees are the common case.
struct TupleTreeSpec {
  std::vector<storage::RelationId> relations;
  std::vector<storage::RowId> rows;
  std::vector<VertexId> parents;
  std::vector<storage::ForeignKeyId> fks;
  std::vector<bool> from_side;
  std::vector<Projection> projections;

  TuplePath Build() const {
    TuplePath tp = TuplePath::SingleVertex(relations[0], rows[0]);
    for (size_t i = 1; i < relations.size(); ++i) {
      tp.AddVertex(relations[i], rows[i], parents[i], fks[i], from_side[i]);
    }
    for (const Projection& p : projections) {
      tp.AddProjection(p.target_column, p.vertex, p.attribute, 1.0);
    }
    return tp;
  }
};

TupleTreeSpec MakeRandomTupleTree(Rng* rng, size_t n) {
  TupleTreeSpec t;
  for (size_t i = 0; i < n; ++i) {
    t.relations.push_back(
        static_cast<storage::RelationId>(rng->UniformInt(0, 1)));
    t.rows.push_back(rng->UniformInt(0, 1));
    t.parents.push_back(
        i == 0 ? kNoVertex
               : static_cast<VertexId>(
                     rng->UniformInt(0, static_cast<int64_t>(i) - 1)));
    t.fks.push_back(i == 0 ? -1
                           : static_cast<storage::ForeignKeyId>(
                                 rng->UniformInt(0, 1)));
    t.from_side.push_back(i != 0 && rng->Bernoulli(0.5));
  }
  int column = 0;
  for (size_t v = 0; v < n; ++v) {
    if (v == 0 || rng->Bernoulli(0.4)) {
      t.projections.push_back(Projection{
          column++, static_cast<VertexId>(v),
          static_cast<storage::AttributeId>(rng->UniformInt(0, 1))});
    }
  }
  return t;
}

// The same tree rooted at `root`, neighbors visited in a shuffled order so
// vertex numbering changes too.
TupleTreeSpec RerootTupleTree(const TupleTreeSpec& t, VertexId root,
                              Rng* rng) {
  const size_t n = t.relations.size();
  struct Adj {
    VertexId neighbor;
    storage::ForeignKeyId fk;
    bool neighbor_is_from;
  };
  std::vector<std::vector<Adj>> adj(n);
  for (size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<size_t>(t.parents[i]);
    adj[parent].push_back(
        Adj{static_cast<VertexId>(i), t.fks[i], t.from_side[i]});
    adj[i].push_back(Adj{t.parents[i], t.fks[i], !t.from_side[i]});
  }
  TupleTreeSpec out;
  std::vector<VertexId> new_id(n, kNoVertex);
  const auto add = [&](VertexId old, VertexId parent,
                       storage::ForeignKeyId fk, bool from) {
    new_id[static_cast<size_t>(old)] =
        static_cast<VertexId>(out.relations.size());
    out.relations.push_back(t.relations[static_cast<size_t>(old)]);
    out.rows.push_back(t.rows[static_cast<size_t>(old)]);
    out.parents.push_back(parent);
    out.fks.push_back(fk);
    out.from_side.push_back(from);
  };
  add(root, kNoVertex, -1, false);
  std::deque<VertexId> queue{root};
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    std::vector<Adj> neighbors = adj[static_cast<size_t>(u)];
    rng->Shuffle(&neighbors);
    for (const Adj& e : neighbors) {
      if (new_id[static_cast<size_t>(e.neighbor)] != kNoVertex) continue;
      add(e.neighbor, new_id[static_cast<size_t>(u)], e.fk,
          e.neighbor_is_from);
      queue.push_back(e.neighbor);
    }
  }
  for (const Projection& p : t.projections) {
    out.projections.push_back(Projection{
        p.target_column, new_id[static_cast<size_t>(p.vertex)], p.attribute});
  }
  return out;
}

// Number of centers (1 or 2) of the tree: two iff its diameter, counted in
// edges, is odd.
size_t NumCenters(const TupleTreeSpec& t) {
  const size_t n = t.relations.size();
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 1; i < n; ++i) {
    adj[static_cast<size_t>(t.parents[i])].push_back(i);
    adj[i].push_back(static_cast<size_t>(t.parents[i]));
  }
  const auto farthest = [&](size_t from, size_t* dist_out) {
    std::vector<size_t> dist(n, SIZE_MAX);
    std::deque<size_t> queue{from};
    dist[from] = 0;
    size_t far = from;
    while (!queue.empty()) {
      const size_t u = queue.front();
      queue.pop_front();
      if (dist[u] > dist[far]) far = u;
      for (size_t w : adj[u]) {
        if (dist[w] != SIZE_MAX) continue;
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
    *dist_out = dist[far];
    return far;
  };
  size_t unused = 0;
  size_t diameter = 0;
  farthest(farthest(0, &unused), &diameter);
  return diameter % 2 == 1 ? 2 : 1;
}

}  // namespace

TEST(CanonicalFuzzTest, TuplePathKeyInvariantUnderRerooting) {
  Rng rng(20120521);
  size_t two_center_trees = 0;
  size_t repeated_label_trees = 0;
  for (int round = 0; round < 300; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 9));
    const TupleTreeSpec tree = MakeRandomTupleTree(&rng, n);
    two_center_trees += NumCenters(tree) == 2 ? 1 : 0;
    std::set<std::pair<storage::RelationId, storage::RowId>> labels;
    for (size_t i = 0; i < n; ++i) {
      labels.emplace(tree.relations[i], tree.rows[i]);
    }
    repeated_label_trees += labels.size() < n ? 1 : 0;
    const std::string key = tree.Build().Canonical();
    for (size_t root = 0; root < n; ++root) {
      const TuplePath rerooted =
          RerootTupleTree(tree, static_cast<VertexId>(root), &rng).Build();
      ASSERT_EQ(rerooted.Canonical(), key)
          << "round " << round << " root " << root;
    }
  }
  EXPECT_GT(two_center_trees, 50u);
  EXPECT_GT(repeated_label_trees, 100u);
}

TEST(CanonicalFuzzTest, TuplePathKeySeesEveryLabelComponent) {
  Rng rng(78);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 7));
    const TupleTreeSpec tree = MakeRandomTupleTree(&rng, n);
    const TuplePath original = tree.Build();
    const std::string key = original.Canonical();
    const std::string reference = ReferenceCanonical(original);
    const size_t v = rng.Index(n);
    const size_t edge = 1 + rng.Index(n - 1);  // the edge to edge's parent
    const size_t proj = rng.Index(tree.projections.size());

    // A label value the tree does not hold anywhere changes the labeled
    // tree's isomorphism class, so it must change the key.
    std::vector<TupleTreeSpec> fresh(6, tree);
    fresh[0].relations[v] = 100;
    fresh[1].rows[v] = 1000;
    fresh[2].fks[edge] = 50;
    fresh[3].projections[proj].attribute = 77;
    fresh[4].projections[proj].target_column = 60;
    fresh[5].projections.push_back(
        Projection{61, static_cast<VertexId>(v), 0});
    for (size_t k = 0; k < fresh.size(); ++k) {
      const TuplePath mutated = fresh[k].Build();
      EXPECT_NE(mutated.Canonical(), key) << "mutation " << k;
      EXPECT_NE(ReferenceCanonical(mutated), reference) << "mutation " << k;
    }

    // Flipping an edge's orientation or moving a projection may land on an
    // isomorphic tree when the tree is symmetric; the key must then agree
    // with the reference encoding either way.
    std::vector<TupleTreeSpec> maybe(2, tree);
    maybe[0].from_side[edge] = !maybe[0].from_side[edge];
    maybe[1].projections[proj].vertex = static_cast<VertexId>(v);
    for (size_t k = 0; k < maybe.size(); ++k) {
      const TuplePath mutated = maybe[k].Build();
      EXPECT_EQ(mutated.Canonical() == key,
                ReferenceCanonical(mutated) == reference)
          << "mutation " << k;
    }
  }
}

// Over a pool of small random trees (many of them isomorphic by chance),
// keys are equal exactly when the reference encodings are.
TEST(CanonicalFuzzTest, TuplePathKeyEqualityMatchesReference) {
  Rng rng(4242);
  std::vector<TuplePath> pool;
  for (int i = 0; i < 400; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
    const TupleTreeSpec tree = MakeRandomTupleTree(&rng, n);
    pool.push_back(
        RerootTupleTree(tree, static_cast<VertexId>(rng.Index(n)), &rng)
            .Build());
  }
  std::vector<std::string> keys;
  std::vector<std::string> references;
  for (const TuplePath& tp : pool) {
    keys.push_back(tp.Canonical());
    references.push_back(ReferenceCanonical(tp));
  }
  size_t equal_pairs = 0;
  for (size_t a = 0; a < pool.size(); ++a) {
    for (size_t b = a + 1; b < pool.size(); ++b) {
      const bool same = references[a] == references[b];
      ASSERT_EQ(keys[a] == keys[b], same)
          << references[a] << " vs " << references[b];
      equal_pairs += same ? 1 : 0;
    }
  }
  EXPECT_GT(equal_pairs, 100u);
  EXPECT_LT(equal_pairs, pool.size() * (pool.size() - 1) / 4);
}

}  // namespace
}  // namespace mweaver::core
