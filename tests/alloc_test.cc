// Heap-allocation counts on the interactive pruning path. This binary
// replaces the global allocation functions with counting ones (so it is
// its own test executable); the count is per thread, so only the calling
// thread's allocations inside a measured region are seen.
//
//   1. A probe-memo hit builds no key string: a 40-byte sample, which no
//      small-string buffer holds, costs zero allocations through both
//      ProbeCache::Lookup and FullTextEngine::MatchingRows.
//   2. A warm PruneByStructure pass reuses the executor's plan buffers and
//      builds no tuple path: its allocations stay under a fixed ceiling.
//   3. A pass probes each distinct (column, attribute) it needs once.
//   4. A warm one-attribute probe (Vocabulary::CandidateRows) allocates
//      only for its sample's tokens and its returned rows: resolution and
//      the merge kernels run in thread-local scratch.
//   6. A warm FindOccurrences allocates only its returned occurrence
//      vector.
//   5. Warm FK joins (PathExecutor::Execute and HasSupport over a 2-join
//      chain) allocate only their results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/execution_context.h"
#include "core/pruning.h"
#include "core/sample_search.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "test_util.h"
#include "text/fulltext_engine.h"
#include "text/inverted_index.h"
#include "text/probe_cache.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "workload/replay.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

// GCC cannot see that these news and deletes pair through malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The aligned forms too: std::pmr's new_delete_resource, which a heap
// TuplePath's storage draws from, allocates through them.
void* operator new(std::size_t n, std::align_val_t al) {
  ++t_allocations;
  void* p = nullptr;
  const size_t alignment = std::max(static_cast<size_t>(al), sizeof(void*));
  if (posix_memalign(&p, alignment, n != 0 ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace mweaver {
namespace {

// Allocations the calling thread makes while running `fn`.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

constexpr char kLongTitle[] = "Harry Potter and the Order of the Phoenix";
// The title's first 40 bytes: past any small-string buffer.
const std::string kSample40 = std::string(kLongTitle).substr(0, 40);

TEST(AllocTest, MemoHitOnFortyByteSampleAllocatesNothing) {
  ASSERT_EQ(kSample40.size(), 40u);
  text::ProbeCache cache(1 << 20);
  cache.Insert(0, 1, 0, kSample40,
               std::make_shared<const std::vector<storage::RowId>>(
                   std::vector<storage::RowId>{3, 5}));
  text::RowSet hit;
  EXPECT_EQ(AllocationsDuring([&] { hit = cache.Lookup(0, 1, 0, kSample40); }),
            0u);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<storage::RowId>{3, 5}));

  storage::Database db = testing::MakeFigure2Db();
  testing::AddRow(&db, "movie", {testing::I(3), testing::S(kLongTitle)});
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const text::AttributeRef title{db.FindRelation("movie"), 1};
  text::ProbeCounters counters;
  const text::RowSet miss = engine.MatchingRows(title, kSample40, &counters);
  ASSERT_EQ(miss->size(), 1u);
  text::RowSet again;
  EXPECT_EQ(AllocationsDuring([&] {
              again = engine.MatchingRows(title, kSample40, &counters);
            }),
            0u);
  EXPECT_EQ(again, miss);  // the memoized handle itself
  EXPECT_EQ(counters.Snapshot().memo_hits, 1u);
}

// One movie task's search and the row typed below its first row.
struct PruneFixture {
  PruneFixture()
      : db(datagen::MakeYahooMovies()),
        engine(&db, text::MatchPolicy::Substring()),
        graph(&db),
        executor(&engine) {
    auto task_sets = datagen::MakeYahooTaskSets(db);
    MW_CHECK(task_sets.ok());
    for (const workload::ReplayScript& script :
         workload::BuildReplayScripts(engine, *task_sets, /*max_rows=*/2)) {
      if (script.rows.size() < 2) continue;
      auto search = core::SampleSearch(engine, graph, script.rows[0]);
      MW_CHECK(search.ok());
      // The task with the most candidates exercises the pass the most.
      if (search->candidates.size() > candidates.size()) {
        candidates = std::move(search->candidates);
        row_samples.clear();
        for (size_t c = 0; c < script.rows[1].size(); ++c) {
          row_samples.emplace(static_cast<int>(c), script.rows[1][c]);
        }
      }
    }
  }

  const storage::Database db;
  const text::FullTextEngine engine;
  const graph::SchemaGraph graph;
  const query::PathExecutor executor;
  std::vector<core::CandidateMapping> candidates;
  query::SampleMap row_samples;
};

const PruneFixture& Fixture() {
  static const PruneFixture* fixture = new PruneFixture();
  return *fixture;
}

// Where the ceiling comes from: a warm pass over the fixture's 12
// candidates (9 pruned) made 6 allocations when this test was written —
// the drop flags and the growth of the pass's probed-rows table. The
// per-candidate Execute loop before it made 222 on the same pass, about
// 18 per candidate. The ceiling leaves room for a standard library that
// grows vectors differently, not for per-candidate allocations.
constexpr uint64_t kWarmStructurePassCeiling = 16;

TEST(AllocTest, WarmStructurePassStaysUnderCeiling) {
  const PruneFixture& f = Fixture();
  ASSERT_GE(f.candidates.size(), 10u);
  ASSERT_GE(f.row_samples.size(), 3u);
  // The first pass warms the probe memo and this thread's plan buffers.
  std::vector<core::CandidateMapping> warm = f.candidates;
  ASSERT_TRUE(
      core::PruneByStructure(f.executor, f.row_samples, &warm, nullptr).ok());

  std::vector<core::CandidateMapping> candidates = f.candidates;
  core::ExecutionContext ctx;
  size_t pruned = 0;
  const uint64_t allocations = AllocationsDuring([&] {
    ASSERT_TRUE(core::PruneByStructure(f.executor, f.row_samples, &candidates,
                                       &pruned, &ctx)
                    .ok());
  });
  EXPECT_GT(pruned, 0u);  // the pass did real work
  EXPECT_EQ(candidates.size(), warm.size());
  EXPECT_LE(allocations, kWarmStructurePassCeiling)
      << f.candidates.size() << " candidates";
}

// The id of the foreign key from.from_attr -> to.to_attr.
storage::ForeignKeyId FindFk(const storage::Database& db, const char* from,
                             const char* from_attr, const char* to,
                             const char* to_attr) {
  const storage::RelationId f = db.FindRelation(from);
  const storage::RelationId t = db.FindRelation(to);
  const auto& fks = db.foreign_keys();
  for (size_t i = 0; i < fks.size(); ++i) {
    if (fks[i].from_relation == f && fks[i].to_relation == t &&
        fks[i].from_attribute ==
            db.relation(f).schema().FindAttribute(from_attr) &&
        fks[i].to_attribute == db.relation(t).schema().FindAttribute(to_attr)) {
      return static_cast<storage::ForeignKeyId>(i);
    }
  }
  MW_CHECK(false) << "no foreign key " << from << "." << from_attr;
  return -1;
}

// Where the ceilings come from: over the 2-join chain movie <- direct ->
// person, typed with the title and director of direct's first row, a warm
// Execute made 20 allocations and a warm HasSupport none, both before and
// after the join indexes became flat key columns. The 20 are the result:
// its vector (1) and its one three-vertex tuple path, whose seven pmr
// vectors grow push_back by push_back (19). The joins themselves read the
// indexes in place and allocate nothing.
constexpr uint64_t kWarmExecuteCeiling = 20;
constexpr uint64_t kWarmHasSupportCeiling = 0;

TEST(AllocTest, WarmJoinsAllocateOnlyResults) {
  const PruneFixture& f = Fixture();
  const storage::Database& db = f.db;
  const storage::RelationId movie = db.FindRelation("movie");
  const storage::RelationId direct = db.FindRelation("direct");
  const storage::RelationId person = db.FindRelation("person");
  core::MappingPath chain = core::MappingPath::SingleVertex(movie);
  const core::VertexId d = chain.AddVertex(
      direct, 0, FindFk(db, "direct", "mid", "movie", "mid"), true);
  const core::VertexId p = chain.AddVertex(
      person, d, FindFk(db, "direct", "pid", "person", "pid"), false);
  chain.AddProjection(0, 0, db.relation(movie).schema().FindAttribute("title"));
  chain.AddProjection(1, p, db.relation(person).schema().FindAttribute("name"));

  // Samples: the title and director of direct's first row, found by scans.
  const storage::Value& mid = db.relation(direct).at(0, 0);
  const storage::Value& pid = db.relation(direct).at(0, 1);
  query::SampleMap samples;
  for (const storage::Row& row : db.relation(movie).rows()) {
    if (row[0] == mid) samples[0] = row[1].AsString();
  }
  for (const storage::Row& row : db.relation(person).rows()) {
    if (row[0] == pid) samples[1] = row[1].AsString();
  }
  ASSERT_EQ(samples.size(), 2u);

  // The first calls warm the probe memo and this thread's plan buffers.
  auto first = f.executor.Execute(chain, samples);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  ASSERT_TRUE(f.executor.HasSupport(chain, samples).ok());

  size_t results = 0;
  const uint64_t execute = AllocationsDuring([&] {
    auto again = f.executor.Execute(chain, samples);
    ASSERT_TRUE(again.ok());
    results = again->size();
  });
  EXPECT_EQ(results, first->size());
  EXPECT_LE(execute, kWarmExecuteCeiling) << results << " tuple paths";
  bool supported = false;
  const uint64_t has_support = AllocationsDuring([&] {
    auto found = f.executor.HasSupport(chain, samples);
    ASSERT_TRUE(found.ok());
    supported = *found;
  });
  EXPECT_TRUE(supported);
  EXPECT_EQ(has_support, kWarmHasSupportCeiling);
}

// The distinct (column, attribute) pairs a per-candidate plan needs, in the
// order BuildPlan probes them: vertex by vertex, projections in order, up
// to the first constraint (or intersection) that is empty.
std::set<std::pair<int, text::AttributeRef>> NeededPairs(
    const text::FullTextEngine& engine,
    const std::vector<core::CandidateMapping>& candidates,
    const query::SampleMap& samples) {
  std::set<std::pair<int, text::AttributeRef>> needed;
  for (const core::CandidateMapping& cand : candidates) {
    const core::MappingPath& mapping = cand.mapping;
    bool empty = false;
    for (size_t v = 0; v < mapping.num_vertices() && !empty; ++v) {
      std::vector<storage::RowId> rows;
      bool constrained = false;
      for (const core::Projection& p : mapping.projections()) {
        if (static_cast<size_t>(p.vertex) != v) continue;
        auto it = samples.find(p.target_column);
        if (it == samples.end() || it->second.empty()) continue;
        const text::AttributeRef attr{
            mapping.vertex(static_cast<core::VertexId>(v)).relation,
            p.attribute};
        needed.emplace(p.target_column, attr);
        const text::RowSet probed = engine.MatchingRows(attr, it->second);
        if (!constrained) {
          rows = *probed;
          constrained = true;
        } else {
          std::vector<storage::RowId> both;
          std::set_intersection(rows.begin(), rows.end(), probed->begin(),
                                probed->end(), std::back_inserter(both));
          rows = std::move(both);
        }
        if (rows.empty()) {
          empty = true;
          break;
        }
      }
    }
  }
  return needed;
}

TEST(AllocTest, PassProbesEachNeededColumnAttributeOnce) {
  const PruneFixture& f = Fixture();
  // Pruning by attribute: one probe per distinct projected attribute.
  size_t most_attrs = 0;
  for (const auto& [column, sample] : f.row_samples) {
    std::set<text::AttributeRef> attrs;
    for (const core::CandidateMapping& cand : f.candidates) {
      const core::Projection* p = cand.mapping.FindProjection(column);
      ASSERT_NE(p, nullptr);
      attrs.insert({cand.mapping.vertex(p->vertex).relation, p->attribute});
    }
    std::vector<core::CandidateMapping> candidates = f.candidates;
    core::ExecutionContext ctx;
    core::PruneByAttribute(f.engine, column, sample, &candidates, &ctx);
    EXPECT_EQ(ctx.probe_counters().Snapshot().probes, attrs.size())
        << "column " << column;
    most_attrs = std::max(most_attrs, attrs.size());
  }
  EXPECT_GT(most_attrs, 1u);
  {  // Pruning by structure: one probe per distinct needed pair.
    const auto needed = NeededPairs(f.engine, f.candidates, f.row_samples);
    std::vector<core::CandidateMapping> candidates = f.candidates;
    core::ExecutionContext ctx;
    ASSERT_TRUE(core::PruneByStructure(f.executor, f.row_samples, &candidates,
                                       nullptr, &ctx)
                    .ok());
    EXPECT_GT(needed.size(), f.row_samples.size());
    EXPECT_EQ(ctx.probe_counters().Snapshot().probes, needed.size());
  }
}

// Where the ceiling comes from: one warm two-token kSubstring probe plus
// one warm fuzzy d = 2 probe make 2 allocations together: each returned
// row vector. The samples' tokens go into the thread's resolution scratch,
// whose strings keep their capacity. (While each probe returned a fresh
// token vector the pair made 4, and before Tokenize counted its tokens
// first, 5.) Any further allocation is a regression: a merge or a token
// must not allocate.
constexpr uint64_t kWarmProbesCeiling = 2;

TEST(AllocTest, WarmProbesAllocateOnlyTokensAndResult) {
  const storage::Database db = datagen::MakeYahooMovies();
  const storage::Relation& movie = db.relation(db.FindRelation("movie"));
  const storage::AttributeId logline =
      movie.schema().FindAttribute("logline");
  // Two 4+-character tokens of the first logline: each resolves to a
  // union over its trigram candidates, and the two unions intersect.
  std::vector<std::string> tokens;
  for (const std::string& t :
       text::Tokenize(movie.at(0, logline).ToDisplayString())) {
    if (t.size() >= 4 && tokens.size() < 2) tokens.push_back(t);
  }
  ASSERT_EQ(tokens.size(), 2u);
  const std::string two_tokens = tokens[0] + " " + tokens[1];
  std::string typo = tokens[0];  // two edits away from tokens[0]
  typo[0] = 'q';
  typo[typo.size() - 1] = 'q';

  const text::InvertedIndex substring(movie, logline,
                                      text::MatchPolicy::Substring());
  const text::InvertedIndex fuzzy(movie, logline, text::MatchPolicy::Fuzzy(2));
  const text::Vocabulary substring_vocab(substring);
  const text::Vocabulary fuzzy_vocab(fuzzy);
  const auto probe = [&](text::ProbeStats* stats) {
    return !substring_vocab.CandidateRows(substring, 0, two_tokens, stats)
                .empty() &&
           !fuzzy_vocab.CandidateRows(fuzzy, 0, typo, stats).empty();
  };
  // Two rounds size this thread's scratch: an intersection's output and
  // its accumulator swap, so each buffer is written once per round.
  for (int round = 0; round < 2; ++round) ASSERT_TRUE(probe(nullptr));
  text::ProbeStats stats;
  ASSERT_TRUE(probe(&stats));
  const uint64_t kernels_before = stats.kernel_array_array +
                                  stats.kernel_array_bitmap;
  ASSERT_GT(kernels_before, 0u);  // the probes really merged lists

  const uint64_t allocations =
      AllocationsDuring([&] { EXPECT_TRUE(probe(&stats)); });
  EXPECT_EQ(stats.kernel_array_array + stats.kernel_array_bitmap,
            2 * kernels_before);
  EXPECT_LE(allocations, kWarmProbesCeiling)
      << "'" << two_tokens << "' and '" << typo << "'";
}

// Where the ceiling comes from: a warm FindOccurrences over every movie
// task's first row (54 samples; each search's location map, answered from
// the probe memo) makes one allocation per sample: its occurrence vector,
// reserved once for the attributes the vocabulary lets it probe. The
// tokens go into thread-local scratch. The same loop made 102 allocations
// when every sample probed all 63 attributes and its occurrence vector
// grew by push_back.
constexpr uint64_t kWarmFindOccurrencesCeiling = 54;

TEST(AllocTest, WarmFindOccurrencesCeiling) {
  const storage::Database db = datagen::MakeYahooMovies();
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  auto task_sets = datagen::MakeYahooTaskSets(db);
  ASSERT_TRUE(task_sets.ok());
  std::vector<std::string> samples;
  for (const workload::ReplayScript& script :
       workload::BuildReplayScripts(engine, *task_sets, /*max_rows=*/1)) {
    for (const std::string& sample : script.rows[0]) {
      if (!sample.empty()) samples.push_back(sample);
    }
  }
  ASSERT_GE(samples.size(), 40u);
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sample : samples) {
      (void)engine.FindOccurrences(sample);
    }
  }
  text::ProbeCounters counters;
  const uint64_t allocations = AllocationsDuring([&] {
    for (const std::string& sample : samples) {
      (void)engine.FindOccurrences(sample, &counters);
    }
  });
  EXPECT_EQ(counters.Snapshot().memo_misses, 0u);
  EXPECT_LT(counters.Snapshot().probes,
            engine.num_indexed_attributes() * samples.size());
  EXPECT_LE(allocations, kWarmFindOccurrencesCeiling);
}

}  // namespace
}  // namespace mweaver
