#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <span>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/hash_util.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/dump.h"
#include "storage/stats.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "test_util.h"

namespace mweaver::storage {
namespace {

using ::mweaver::testing::AddRow;
using ::mweaver::testing::I;
using ::mweaver::testing::IdAttr;
using ::mweaver::testing::MakeFigure2Db;
using ::mweaver::testing::S;
using ::mweaver::testing::StrAttr;

// ----------------------------------------------------------------- Value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{4}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(int64_t{4}).AsInt64(), 4);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(std::string("xy")).AsString(), "xy");
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value().ToDisplayString(), "");
  EXPECT_EQ(Value(int64_t{42}).ToDisplayString(), "42");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value("Avatar").ToDisplayString(), "Avatar");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // different types differ
  EXPECT_EQ(Value(), Value::Null());
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(), Value(int64_t{0}));  // null sorts first
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_NE(Value(int64_t{7}).Hash(), Value("7").Hash());
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, FindAttribute) {
  RelationSchema schema("movie", {IdAttr("mid"), StrAttr("title")});
  EXPECT_EQ(schema.FindAttribute("mid"), 0);
  EXPECT_EQ(schema.FindAttribute("title"), 1);
  EXPECT_EQ(schema.FindAttribute("nope"), kInvalidAttribute);
  EXPECT_EQ(schema.num_attributes(), 2u);
}

TEST(SchemaTest, PrimaryKey) {
  RelationSchema schema("movie", {IdAttr("mid"), StrAttr("title")});
  schema.SetPrimaryKey({0});
  EXPECT_EQ(schema.primary_key(), std::vector<AttributeId>{0});
}

// -------------------------------------------------------------- Relation --

TEST(RelationTest, AppendValidatesArity) {
  Relation rel(RelationSchema("r", {IdAttr("a"), StrAttr("b")}));
  EXPECT_TRUE(rel.Append({I(1), S("x")}).ok());
  EXPECT_TRUE(rel.Append({I(1)}).IsInvalidArgument());
  EXPECT_TRUE(rel.Append({I(1), S("x"), S("y")}).IsInvalidArgument());
  EXPECT_EQ(rel.num_rows(), 1u);
}

TEST(RelationTest, AppendValidatesTypes) {
  Relation rel(RelationSchema("r", {IdAttr("a"), StrAttr("b")}));
  EXPECT_TRUE(rel.Append({S("wrong"), S("x")}).IsInvalidArgument());
  // Nulls are allowed anywhere.
  EXPECT_TRUE(rel.Append({Value::Null(), Value::Null()}).ok());
}

// The rows a JoinIndex lookup returns, as a vector.
std::vector<RowId> Rows(std::span<const RowId> rows) {
  return {rows.begin(), rows.end()};
}

TEST(RelationTest, JoinIndexLookup) {
  Relation rel(RelationSchema("r", {IdAttr("k"), StrAttr("v")}));
  ASSERT_TRUE(rel.Append({I(1), S("one")}).ok());
  ASSERT_TRUE(rel.Append({I(2), S("two")}).ok());
  ASSERT_TRUE(rel.Append({I(1), S("uno")}).ok());
  const JoinIndex& index = rel.IndexOn(0);
  EXPECT_EQ(Rows(index.Lookup(I(1))), (std::vector<RowId>{0, 2}));
  EXPECT_EQ(Rows(index.Lookup(I(2))), (std::vector<RowId>{1}));
  EXPECT_TRUE(index.Lookup(I(9)).empty());
  EXPECT_EQ(index.num_distinct(), 2u);
}

TEST(RelationTest, IndexSkipsNulls) {
  Relation rel(RelationSchema("r", {IdAttr("k")}));
  ASSERT_TRUE(rel.Append({Value::Null()}).ok());
  ASSERT_TRUE(rel.Append({I(5)}).ok());
  EXPECT_EQ(rel.IndexOn(0).num_distinct(), 1u);
  EXPECT_TRUE(rel.IndexOn(0).Lookup(Value::Null()).empty());
}

// The join-index oracle: on `rel`'s attribute 0, every lookup of a probe
// value equals a scan of the live rows holding an equal Value, in
// ascending row order.
void ExpectIndexMatchesScan(const Relation& rel,
                            const std::vector<Value>& probes) {
  const JoinIndex& index = rel.IndexOn(0);
  std::vector<Value> distinct;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    const auto row = static_cast<RowId>(r);
    const Value& v = rel.at(row, 0);
    if (rel.is_deleted(row) || v.is_null()) continue;
    if (std::find(distinct.begin(), distinct.end(), v) == distinct.end()) {
      distinct.push_back(v);
    }
  }
  EXPECT_EQ(index.num_distinct(), distinct.size());
  for (const Value& probe : probes) {
    std::vector<RowId> expected;
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      const auto row = static_cast<RowId>(r);
      if (!probe.is_null() && !rel.is_deleted(row) && rel.at(row, 0) == probe) {
        expected.push_back(row);
      }
    }
    EXPECT_EQ(Rows(index.Lookup(probe)), expected) << "probe " << probe;
  }
}

// Builds a relation of `num_rows` rows whose attribute 0 draws from `pool`
// (about one row in eight null), checks the oracle on it (probing the pool,
// absent values and `extra_probes`), then tombstones about a third of the
// rows of a clone and checks the clone.
void CheckRandomRelation(ValueType type, const std::vector<Value>& pool,
                         size_t num_rows, uint32_t seed,
                         const std::vector<Value>& extra_probes = {}) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  Relation rel(RelationSchema("r", {AttributeSchema{"k", type}}));
  for (size_t r = 0; r < num_rows; ++r) {
    Row row(1);
    if (rng() % 8 != 0) row[0] = pool[rng() % pool.size()];
    rel.AppendUnchecked(std::move(row));
  }
  std::vector<Value> probes = pool;
  probes.emplace_back();  // null
  probes.emplace_back(int64_t{424242});  // absent
  probes.emplace_back("absent");
  probes.emplace_back(0.5);
  probes.insert(probes.end(), extra_probes.begin(), extra_probes.end());
  ExpectIndexMatchesScan(rel, probes);

  Relation clone = rel.Clone();
  ExpectIndexMatchesScan(clone, probes);
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng() % 3 == 0) {
      ASSERT_TRUE(clone.Delete(static_cast<RowId>(r)).ok());
    }
  }
  ExpectIndexMatchesScan(clone, probes);
  ExpectIndexMatchesScan(rel, probes);  // the original has no tombstones
}

std::vector<Value> IntPool(std::vector<int64_t> keys) {
  std::vector<Value> pool;
  for (const int64_t k : keys) pool.emplace_back(k);
  return pool;
}

TEST(JoinIndexOracleTest, DenseIntegerKeys) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 50; ++k) keys.push_back(k);
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kInt64, IntPool(keys), 200, seed);
  }
}

TEST(JoinIndexOracleTest, NegativeKeys) {
  std::vector<int64_t> keys;
  for (int64_t k = -120; k < -80; k += 2) keys.push_back(k);
  keys.push_back(3);
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kInt64, IntPool(keys), 150, seed);
  }
}

TEST(JoinIndexOracleTest, SparseIntegerKeys) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys;
  for (int i = 0; i < 60; ++i) keys.push_back(static_cast<int64_t>(rng()));
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kInt64, IntPool(keys), 300, seed);
  }
}

TEST(JoinIndexOracleTest, ExtremeKeysInOneColumn) {
  // INT64_MAX - INT64_MIN overflows a signed key range.
  const std::vector<int64_t> keys = {INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                                     INT64_MAX - 1, INT64_MAX};
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kInt64, IntPool(keys), 100, seed);
  }
  // Few rows over a narrow range: dense, with the extremes alone too.
  CheckRandomRelation(ValueType::kInt64, IntPool({INT64_MIN, INT64_MIN + 2}),
                      20, 9);
  CheckRandomRelation(ValueType::kInt64, IntPool({INT64_MAX - 3, INT64_MAX}),
                      20, 9);
}

TEST(JoinIndexOracleTest, StringKeys) {
  std::vector<Value> pool;
  for (int i = 0; i < 40; ++i) pool.emplace_back("k" + std::to_string(i));
  pool.emplace_back("");
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kString, pool, 200, seed);
  }
}

TEST(JoinIndexOracleTest, DoubleKeysWithSignedZeros) {
  const std::vector<Value> pool = {Value(0.0),  Value(-0.0), Value(1.5),
                                   Value(-2.25), Value(1e300), Value(7.0)};
  ASSERT_EQ(Value(0.0), Value(-0.0));  // one key: both zeros match either
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kDouble, pool, 120, seed);
  }
}

TEST(JoinIndexOracleTest, MismatchedProbeTypesMiss) {
  // A typed column holds one type, so a probe of another type misses, even
  // when its key equals a stored one: a string whose hash is an integer in
  // an int column, doubles equal to stored integers, and the integer a
  // stored string hashes to, looked up in a string column.
  const int64_t two_key = JoinIndex::KeyOf(Value("two"));
  const std::vector<Value> ints = IntPool({1, 2, two_key});
  const std::vector<Value> strings = {Value("1"), Value("two")};
  const std::vector<Value> foreign_to_ints = {Value("1"), Value("two"),
                                              Value(1.0), Value(2.0)};
  const std::vector<Value> foreign_to_strings = {Value(int64_t{1}),
                                                 Value(two_key), Value(1.0)};
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    CheckRandomRelation(ValueType::kInt64, ints, 120, seed, foreign_to_ints);
    CheckRandomRelation(ValueType::kString, strings, 120, seed,
                        foreign_to_strings);
  }

  Relation int_rel(RelationSchema("r", {IdAttr("k")}));
  Relation string_rel(RelationSchema("s", {StrAttr("k")}));
  for (const Value& v : ints) int_rel.AppendUnchecked({v});
  for (const Value& v : strings) string_rel.AppendUnchecked({v});
  ASSERT_EQ(int_rel.IndexOn(0).Lookup(Value(two_key)).size(), 1u);
  for (const Value& probe : foreign_to_ints) {
    EXPECT_TRUE(int_rel.IndexOn(0).Lookup(probe).empty()) << probe;
  }
  ASSERT_EQ(string_rel.IndexOn(0).Lookup(Value("two")).size(), 1u);
  for (const Value& probe : foreign_to_strings) {
    EXPECT_TRUE(string_rel.IndexOn(0).Lookup(probe).empty()) << probe;
  }
}

// IndexOn reads a built index through an atomic pointer and takes the
// mutex only to build one. Racing first uses of one attribute must all get
// the same index, while another attribute builds beside them (run under
// TSan: storage_test carries the tsan label).
TEST(RelationIndexTest, RacingFirstUsesShareOneIndex) {
  Relation rel(RelationSchema("r", {IdAttr("k"), IdAttr("g"), StrAttr("v")}));
  constexpr int64_t kRows = 3000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(rel.Append({I(i % 97), I(i % 13), S("x")}).ok());
  }
  std::vector<RowId> expected_k;
  std::vector<RowId> expected_g;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 97 == 5) expected_k.push_back(static_cast<RowId>(i));
    if (i % 13 == 3) expected_g.push_back(static_cast<RowId>(i));
  }

  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads + 1};
  const auto start_together = [&] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
  };
  std::vector<const JoinIndex*> seen(kThreads, nullptr);
  std::vector<std::vector<RowId>> lookups(kThreads);
  const JoinIndex* other = nullptr;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      const JoinIndex& index = rel.IndexOn(0);
      seen[static_cast<size_t>(t)] = &index;
      lookups[static_cast<size_t>(t)] = Rows(index.Lookup(I(5)));
    });
  }
  threads.emplace_back([&] {
    start_together();
    other = &rel.IndexOn(1);
  });
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], &rel.IndexOn(0));
    EXPECT_EQ(lookups[static_cast<size_t>(t)], expected_k);
  }
  EXPECT_EQ(rel.IndexOn(0).num_distinct(), 97u);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other, &rel.IndexOn(1));
  EXPECT_NE(other, seen[0]);
  EXPECT_EQ(Rows(other->Lookup(I(3))), expected_g);
}

TEST(RelationIndexTest, DeleteOnPrivateCloneRebuildsWithoutTombstone) {
  Relation rel(RelationSchema("r", {IdAttr("k"), StrAttr("v")}));
  ASSERT_TRUE(rel.Append({I(1), S("one")}).ok());
  ASSERT_TRUE(rel.Append({I(2), S("two")}).ok());
  ASSERT_TRUE(rel.Append({I(1), S("uno")}).ok());
  const JoinIndex& served = rel.IndexOn(0);
  ASSERT_EQ(Rows(served.Lookup(I(1))), (std::vector<RowId>{0, 2}));

  Relation clone = rel.Clone();
  ASSERT_EQ(Rows(clone.IndexOn(0).Lookup(I(1))), (std::vector<RowId>{0, 2}));
  ASSERT_TRUE(clone.Delete(2).ok());
  EXPECT_EQ(Rows(clone.IndexOn(0).Lookup(I(1))), (std::vector<RowId>{0}));
  EXPECT_EQ(Rows(clone.IndexOn(0).Lookup(I(2))), (std::vector<RowId>{1}));
  // The served relation's index is untouched.
  EXPECT_EQ(&rel.IndexOn(0), &served);
  EXPECT_EQ(Rows(served.Lookup(I(1))), (std::vector<RowId>{0, 2}));
}

TEST(RelationIndexDeathTest, AppendAfterIndexBuildAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation rel(RelationSchema("r", {IdAttr("k")}));
  ASSERT_TRUE(rel.Append({I(1)}).ok());
  rel.IndexOn(0);
  EXPECT_DEATH((void)rel.Append({I(2)}), "after indexes were built");
}

// ------------------------------------------------------ Columnar storage --

// The reference semantics, kept apart from the code under test: a Row-form
// cell as the variant Value held before relations stored typed columns.
using Repr = std::variant<std::monostate, int64_t, double, std::string>;

Repr ReprOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return std::monostate{};
    case ValueType::kInt64:
      return v.AsInt64();
    case ValueType::kDouble:
      return v.AsDouble();
    case ValueType::kString:
      return v.AsString();
  }
  return std::monostate{};
}

size_t ReferenceHash(const Repr& r) {
  size_t seed = r.index();
  if (r.index() == 1) HashCombine(&seed, std::get<int64_t>(r));
  if (r.index() == 2) HashCombine(&seed, std::get<double>(r));
  if (r.index() == 3) HashCombine(&seed, std::get<std::string>(r));
  return seed;
}

std::string ReferenceDisplay(const Repr& r) {
  if (r.index() == 1) return std::to_string(std::get<int64_t>(r));
  if (r.index() == 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(r));
    return buf;
  }
  if (r.index() == 3) return std::get<std::string>(r);
  return "";
}

// A random cell of `type`, about one in six null, drawn mostly from the
// edge cases: empty strings, strings past the small-string buffer,
// INT64_MIN/INT64_MAX, 0.0 and -0.0.
Value RandomCell(ValueType type, std::mt19937_64& rng) {
  if (rng() % 6 == 0) return Value();
  switch (type) {
    case ValueType::kInt64: {
      const int64_t edges[] = {INT64_MIN, INT64_MAX, 0, -1};
      return Value(rng() % 2 ? edges[rng() % 4]
                             : static_cast<int64_t>(rng() % 40) - 20);
    }
    case ValueType::kDouble: {
      const double edges[] = {0.0, -0.0, 1.5, -1e300, 2.0};
      return Value(rng() % 2 ? edges[rng() % 5]
                             : static_cast<double>(rng() % 40) / 4);
    }
    case ValueType::kString:
      switch (rng() % 4) {
        case 0:
          return Value("");
        case 1:
          return Value(std::string(16 + rng() % 40, 'a' + rng() % 3));
        default:
          return Value("s" + std::to_string(rng() % 12));
      }
    case ValueType::kNull:
      break;
  }
  return Value();
}

// Every at() and row() view of `rel` against the Row-form reference `ref`
// and its tombstones: equal cells, equal Hash() and display strings, and
// the same order of each column's rows as the reference order.
void ExpectViewsMatchReference(const Relation& rel, const std::vector<Row>& ref,
                               const std::vector<bool>& deleted) {
  ASSERT_EQ(rel.num_rows(), ref.size());
  ASSERT_EQ(rel.num_deleted(),
            static_cast<size_t>(std::count(deleted.begin(), deleted.end(),
                                           true)));
  const size_t arity = rel.schema().num_attributes();
  for (size_t r = 0; r < ref.size(); ++r) {
    const auto row = static_cast<RowId>(r);
    EXPECT_EQ(rel.is_deleted(row), deleted[r]) << "row " << r;
    const RowView view = rel.row(row);
    ASSERT_EQ(view.size(), arity);
    EXPECT_EQ(Row(view), ref[r]) << "row " << r;
    for (size_t a = 0; a < arity; ++a) {
      const ValueView cell = rel.at(row, static_cast<AttributeId>(a));
      const Repr want = ReprOf(ref[r][a]);
      EXPECT_EQ(ReprOf(Value(cell)), want) << "row " << r << " attr " << a;
      EXPECT_TRUE(cell == ref[r][a] && view[a] == cell);
      EXPECT_EQ(cell.Hash(), ReferenceHash(want));
      EXPECT_EQ(cell.Hash(), ref[r][a].Hash());
      EXPECT_EQ(cell.ToDisplayString(), ReferenceDisplay(want));
    }
  }
  for (size_t a = 0; a < arity; ++a) {
    const auto attr = static_cast<AttributeId>(a);
    std::vector<RowId> by_view(ref.size());
    std::iota(by_view.begin(), by_view.end(), 0);
    std::vector<RowId> by_reference = by_view;
    std::stable_sort(by_view.begin(), by_view.end(), [&](RowId x, RowId y) {
      return rel.at(x, attr) < rel.at(y, attr);
    });
    std::stable_sort(by_reference.begin(), by_reference.end(),
                     [&](RowId x, RowId y) {
                       return ReprOf(ref[x][a]) < ReprOf(ref[y][a]);
                     });
    EXPECT_EQ(by_view, by_reference) << "attr " << a;
  }
}

static_assert(std::is_trivially_copyable_v<ValueView>);

TEST(ColumnarPropertyTest, ViewsMatchRowReferenceThroughClonesAndEdits) {
  const RelationSchema schema(
      "r", {AttributeSchema{"i", ValueType::kInt64},
            AttributeSchema{"d", ValueType::kDouble},
            AttributeSchema{"s", ValueType::kString},
            AttributeSchema{"t", ValueType::kString}});
  const auto random_row = [&](std::mt19937_64& rng) {
    Row row;
    for (const AttributeSchema& attr : schema.attributes()) {
      row.push_back(RandomCell(attr.type, rng));
    }
    return row;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    Database db("prop");
    const RelationId id = db.AddRelation(schema).ValueOrDie();
    Relation* rel = db.mutable_relation(id);
    std::vector<Row> ref;
    const size_t num_rows = 40 + rng() % 160;
    for (size_t r = 0; r < num_rows; ++r) {
      ref.push_back(random_row(rng));
      if (r % 2 == 0) {
        ASSERT_TRUE(rel->Append(ref.back()).ok());
      } else {
        rel->AppendUnchecked(ref.back());
      }
    }
    std::vector<bool> deleted(ref.size(), false);
    for (size_t r = 0; r < ref.size(); ++r) {
      if (rng() % 5 == 0) {
        ASSERT_TRUE(rel->Delete(static_cast<RowId>(r)).ok());
        deleted[r] = true;
      }
    }
    ExpectViewsMatchReference(*rel, ref, deleted);

    const Relation clone = rel->Clone();
    ExpectViewsMatchReference(clone, ref, deleted);

    // A copy-on-write delta: appends and deletes land in the copy only.
    Database delta = db.CloneCow({id});
    std::vector<Row> delta_ref = ref;
    std::vector<bool> delta_deleted = deleted;
    for (size_t k = 0; k < 30; ++k) {
      delta_ref.push_back(random_row(rng));
      delta_deleted.push_back(false);
      ASSERT_TRUE(delta.mutable_relation(id)->Append(delta_ref.back()).ok());
    }
    for (size_t r = 0; r < delta_ref.size(); ++r) {
      if (!delta_deleted[r] && rng() % 4 == 0) {
        ASSERT_TRUE(delta.mutable_relation(id)->Delete(RowId(r)).ok());
        delta_deleted[r] = true;
      }
    }
    ExpectViewsMatchReference(delta.relation(id), delta_ref, delta_deleted);
    ExpectViewsMatchReference(db.relation(id), ref, deleted);
    ExpectViewsMatchReference(clone, ref, deleted);
  }
}

TEST(ColumnarPropertyTest, AppendUncheckedRejectsContradictingType) {
  Relation rel(RelationSchema("r", {IdAttr("k")}));
  rel.AppendUnchecked({Value::Null()});
  EXPECT_DEATH(rel.AppendUnchecked({S("1")}),
               "attribute 'k' expects int64, got string");
}

// -------------------------------------------------------------- Database --

TEST(DatabaseTest, AddAndFindRelations) {
  Database db = MakeFigure2Db();
  EXPECT_EQ(db.num_relations(), 4u);
  EXPECT_NE(db.FindRelation("movie"), kInvalidRelation);
  EXPECT_EQ(db.FindRelation("nope"), kInvalidRelation);
  EXPECT_EQ(db.TotalAttributes(), 8u);
  EXPECT_EQ(db.TotalRows(), 14u);
}

TEST(DatabaseTest, RejectsDuplicateRelation) {
  Database db;
  ASSERT_TRUE(db.AddRelation(RelationSchema("r", {IdAttr("a")})).ok());
  EXPECT_TRUE(db.AddRelation(RelationSchema("r", {IdAttr("a")}))
                  .status()
                  .IsAlreadyExists());
}

TEST(DatabaseTest, ForeignKeyValidation) {
  Database db;
  ASSERT_TRUE(
      db.AddRelation(RelationSchema("a", {IdAttr("x"), StrAttr("s")})).ok());
  ASSERT_TRUE(db.AddRelation(RelationSchema("b", {IdAttr("y")})).ok());
  EXPECT_TRUE(db.AddForeignKey("a", "x", "b", "y").ok());
  EXPECT_TRUE(db.AddForeignKey("zz", "x", "b", "y").status().IsNotFound());
  EXPECT_TRUE(db.AddForeignKey("a", "zz", "b", "y").status().IsNotFound());
  // Type mismatch: string -> int.
  EXPECT_TRUE(
      db.AddForeignKey("a", "s", "b", "y").status().IsInvalidArgument());
}

TEST(DatabaseTest, ReferentialIntegrity) {
  Database db = MakeFigure2Db();
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
  // Introduce a dangling reference.
  AddRow(&db, "director", {I(99), I(0)});
  EXPECT_TRUE(db.CheckReferentialIntegrity().IsFailedPrecondition());
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParseSimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto fields = ParseCsvLine(R"("a,b",plain,"say ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "plain", "say \"hi\""}));
}

TEST(CsvTest, ParseErrors) {
  EXPECT_TRUE(ParseCsvLine("\"unterminated").status().IsInvalidArgument());
  EXPECT_TRUE(ParseCsvLine("mid\"quote").status().IsInvalidArgument());
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvTest, FormatParseRoundTrip) {
  const std::vector<std::string> fields{"plain", "with,comma", "with\"quote",
                                        ""};
  auto parsed = ParseCsvLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

TEST(CsvTest, SaveAndLoadRelation) {
  Relation rel(RelationSchema("t", {StrAttr("name"), StrAttr("city")}));
  ASSERT_TRUE(rel.Append({S("Ann, A."), S("Ann Arbor")}).ok());
  ASSERT_TRUE(rel.Append({S("Bob"), S("Boston")}).ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "mweaver_csv_test.csv")
          .string();
  ASSERT_TRUE(SaveCsvRelation(rel, path).ok());
  auto loaded = LoadCsvRelation(path, "t2");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->schema().num_attributes(), 2u);
  EXPECT_EQ(loaded->at(0, 0).AsString(), "Ann, A.");
  EXPECT_EQ(loaded->at(1, 1).AsString(), "Boston");
  std::remove(path.c_str());
}

// A deleted row is gone from the file: a reload reads only the live rows,
// renumbered densely.
TEST(CsvTest, SaveWritesOnlyLiveRows) {
  Relation rel(RelationSchema("t", {StrAttr("name"), StrAttr("city")}));
  ASSERT_TRUE(rel.Append({S("Ann"), S("Ann Arbor")}).ok());
  ASSERT_TRUE(rel.Append({S("Bob"), S("Boston")}).ok());
  ASSERT_TRUE(rel.Append({S("Cid"), S("Chicago")}).ok());
  ASSERT_TRUE(rel.Delete(1).ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "mweaver_csv_live_test.csv")
          .string();
  ASSERT_TRUE(SaveCsvRelation(rel, path).ok());
  auto loaded = LoadCsvRelation(path, "t2");
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->num_live_rows(), 2u);
  EXPECT_EQ(loaded->at(0, 0).AsString(), "Ann");
  EXPECT_EQ(loaded->at(1, 0).AsString(), "Cid");
}

TEST(CsvTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadCsvRelation("/nonexistent/file.csv", "x")
                  .status()
                  .IsIOError());
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, ComputesBasicCounts) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  rel.AppendUnchecked({S("abc")});
  rel.AppendUnchecked({S("abc")});
  rel.AppendUnchecked({S("defgh")});
  rel.AppendUnchecked({Value::Null()});
  const ColumnStats stats = ComputeColumnStats(rel, 0);
  EXPECT_EQ(stats.num_rows, 4u);
  EXPECT_EQ(stats.num_nulls, 1u);
  EXPECT_EQ(stats.num_distinct, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_length, (3 + 3 + 5) / 3.0);
  EXPECT_DOUBLE_EQ(stats.numeric_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(stats.char_classes[0], 1.0);  // all letters
}

TEST(StatsTest, DetectsNumericContent) {
  Relation rel(RelationSchema(
      "r", {{"n", ValueType::kInt64, false}, StrAttr("s")}));
  rel.AppendUnchecked({I(42), S("123")});
  rel.AppendUnchecked({I(7), S("12x")});
  const ColumnStats ints = ComputeColumnStats(rel, 0);
  EXPECT_DOUBLE_EQ(ints.numeric_fraction, 1.0);
  EXPECT_DOUBLE_EQ(ints.char_classes[1], 1.0);  // digits only
  const ColumnStats strings = ComputeColumnStats(rel, 1);
  EXPECT_DOUBLE_EQ(strings.numeric_fraction, 0.5);  // "123" yes, "12x" no
}

TEST(StatsTest, ValueStatsMatchEquivalentColumn) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  rel.AppendUnchecked({S("James Cameron")});
  rel.AppendUnchecked({S("Tim Burton")});
  const ColumnStats a = ComputeColumnStats(rel, 0);
  const ColumnStats b =
      ComputeValueStats({"James Cameron", "Tim Burton"});
  EXPECT_DOUBLE_EQ(a.avg_length, b.avg_length);
  EXPECT_DOUBLE_EQ(a.numeric_fraction, b.numeric_fraction);
  EXPECT_EQ(a.char_classes, b.char_classes);
}

TEST(StatsTest, ShapeSimilarityOrdersSensibly) {
  const ColumnStats names = ComputeValueStats(
      {"James Cameron", "David Yates", "Tim Burton", "Sofia Coppola"});
  const ColumnStats other_names =
      ComputeValueStats({"Grace Hopper", "Alan Turing"});
  const ColumnStats dates =
      ComputeValueStats({"2009-12-10", "1999-03-31", "2011-07-15"});
  // Names resemble names more than they resemble dates.
  EXPECT_GT(ShapeSimilarity(names, other_names),
            ShapeSimilarity(names, dates));
  // Similarity is symmetric and self-similarity is maximal.
  EXPECT_DOUBLE_EQ(ShapeSimilarity(names, dates),
                   ShapeSimilarity(dates, names));
  EXPECT_DOUBLE_EQ(ShapeSimilarity(names, names), 1.0);
}

TEST(StatsTest, EmptyColumn) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  const ColumnStats stats = ComputeColumnStats(rel, 0);
  EXPECT_EQ(stats.num_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.avg_length, 0.0);
}

// ------------------------------------------------------------------ Dump --

TEST(DumpTest, RoundTripsFigure2) {
  Database db = MakeFigure2Db();
  std::stringstream buffer;
  ASSERT_TRUE(DumpDatabase(db, &buffer).ok());

  auto loaded = LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), db.name());
  ASSERT_EQ(loaded->num_relations(), db.num_relations());
  EXPECT_EQ(loaded->TotalAttributes(), db.TotalAttributes());
  EXPECT_EQ(loaded->TotalRows(), db.TotalRows());
  EXPECT_EQ(loaded->foreign_keys().size(), db.foreign_keys().size());
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const Relation& a = db.relation(static_cast<RelationId>(r));
    const Relation& b = loaded->relation(static_cast<RelationId>(r));
    ASSERT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t row = 0; row < a.num_rows(); ++row) {
      EXPECT_EQ(Row(a.row(static_cast<RowId>(row))),
                Row(b.row(static_cast<RowId>(row))));
    }
  }
  EXPECT_TRUE(loaded->CheckReferentialIntegrity().ok());
}

TEST(DumpTest, RoundTripsTrickyValues) {
  Database db("edge");
  ASSERT_TRUE(db.AddRelation(RelationSchema(
                                 "t", {StrAttr("s"), IdAttr("i"),
                                       AttributeSchema{"d",
                                                       ValueType::kDouble,
                                                       false}}))
                  .ok());
  Relation* rel = db.mutable_relation(0);
  ASSERT_TRUE(rel->Append({S(""), I(-42), Value(0.1)}).ok());
  ASSERT_TRUE(
      rel->Append({S("comma, \"quote\"\nline"), Value::Null(), Value(-1e300)})
          .ok());
  ASSERT_TRUE(rel->Append({Value::Null(), I(INT64_MAX), Value::Null()}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(DumpDatabase(db, &buffer).ok());
  auto loaded = LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation& out = loaded->relation(0);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.at(0, 0).AsString(), "");        // empty string != NULL
  EXPECT_FALSE(out.at(0, 0).is_null());
  EXPECT_EQ(out.at(0, 1).AsInt64(), -42);
  EXPECT_DOUBLE_EQ(out.at(0, 2).AsDouble(), 0.1);
  EXPECT_TRUE(out.at(1, 1).is_null());
  EXPECT_DOUBLE_EQ(out.at(1, 2).AsDouble(), -1e300);
  EXPECT_EQ(out.at(2, 1).AsInt64(), INT64_MAX);
}

// Appends and deletes, then a round trip: the dump holds the live rows only,
// so nothing deleted comes back. The survivors are renumbered densely on
// reload, which foreign keys survive because they are dumped by value.
TEST(DumpTest, DeletedRowsStayDeletedAcrossRoundTrip) {
  Database db("live");
  ASSERT_TRUE(
      db.AddRelation(RelationSchema("t", {IdAttr("id"), StrAttr("name")}))
          .ok());
  ASSERT_TRUE(db.AddRelation(RelationSchema("u", {IdAttr("tid")})).ok());
  ASSERT_TRUE(db.AddForeignKey("u", "tid", "t", "id").ok());
  Relation* t = db.mutable_relation(db.FindRelation("t"));
  ASSERT_TRUE(t->Append({I(1), S("one")}).ok());
  ASSERT_TRUE(t->Append({I(2), S("two")}).ok());
  ASSERT_TRUE(t->Append({I(3), S("three")}).ok());
  ASSERT_TRUE(db.mutable_relation(db.FindRelation("u"))->Append({I(3)}).ok());
  ASSERT_TRUE(t->Delete(1).ok());
  ASSERT_EQ(db.TotalRows(), 3u);

  std::stringstream buffer;
  ASSERT_TRUE(DumpDatabase(db, &buffer).ok());
  auto loaded = LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->TotalRows(), 3u);
  const Relation& out = loaded->relation(loaded->FindRelation("t"));
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.num_live_rows(), 2u);
  EXPECT_EQ(out.at(0, 1).AsString(), "one");
  EXPECT_EQ(out.at(1, 0).AsInt64(), 3);
  EXPECT_EQ(out.at(1, 1).AsString(), "three");
  EXPECT_TRUE(loaded->CheckReferentialIntegrity().ok());
}

TEST(DumpTest, RejectsGarbage) {
  std::stringstream not_a_dump("hello world\n");
  EXPECT_TRUE(LoadDatabase(&not_a_dump).status().IsInvalidArgument());

  std::stringstream bad_record("mweaverdb 1\nbogus,record\n");
  EXPECT_TRUE(LoadDatabase(&bad_record).status().IsInvalidArgument());

  std::stringstream row_without_relation("mweaverdb 1\nrow,sfoo\n");
  EXPECT_TRUE(
      LoadDatabase(&row_without_relation).status().IsInvalidArgument());

  std::stringstream arity_lie(
      "mweaverdb 1\nrelation,t,2\nattr,a,string,1\nrow,sx\n");
  EXPECT_TRUE(LoadDatabase(&arity_lie).status().IsInvalidArgument());
}

TEST(DumpTest, FileRoundTrip) {
  Database db = MakeFigure2Db();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mweaver_dump_test.mwdb")
          .string();
  ASSERT_TRUE(DumpDatabaseToFile(db, path).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalRows(), db.TotalRows());
  std::remove(path.c_str());

  EXPECT_TRUE(LoadDatabaseFromFile("/nonexistent/db.mwdb")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace mweaver::storage
