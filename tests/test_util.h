// Shared fixtures for the test suite: the Figure-2 toy database (movies and
// people connected via both director and writer), seeded random database /
// relation builders, and small builder shorthands.
#ifndef MWEAVER_TESTS_TEST_UTIL_H_
#define MWEAVER_TESTS_TEST_UTIL_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/ranking.h"
#include "storage/database.h"
#include "text/inverted_index.h"
#include "text/vocabulary.h"

namespace mweaver::testing {

inline storage::AttributeSchema IdAttr(const std::string& name) {
  return {name, storage::ValueType::kInt64, /*searchable=*/false};
}
inline storage::AttributeSchema StrAttr(const std::string& name) {
  return {name, storage::ValueType::kString, /*searchable=*/true};
}

inline storage::Value I(int64_t v) { return storage::Value(v); }
inline storage::Value S(const std::string& v) { return storage::Value(v); }

/// Appends a row without validation (test data is trusted).
inline void AddRow(storage::Database* db, const std::string& relation,
                   storage::Row row) {
  db->mutable_relation(db->FindRelation(relation))
      ->AppendUnchecked(std::move(row));
}

/// \brief The paper's Figure 2 database:
///   movie(mid, title), person(pid, name),
///   director(mid, pid), writer(mid, pid)
/// with Avatar/Harry Potter/Big Fish and their directors & writers. Avatar
/// was both written and directed by James Cameron (the ambiguity the
/// running example turns on).
inline storage::Database MakeFigure2Db() {
  using storage::Database;
  using storage::RelationSchema;

  Database db("figure2");
  db.AddRelation(RelationSchema("movie", {IdAttr("mid"), StrAttr("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("person", {IdAttr("pid"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("director", {IdAttr("mid"), IdAttr("pid")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("writer", {IdAttr("mid"), IdAttr("pid")}))
      .ValueOrDie();
  db.AddForeignKey("director", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("director", "pid", "person", "pid").ValueOrDie();
  db.AddForeignKey("writer", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("writer", "pid", "person", "pid").ValueOrDie();

  AddRow(&db, "movie", {I(0), S("Avatar")});
  AddRow(&db, "movie", {I(1), S("Harry Potter")});
  AddRow(&db, "movie", {I(2), S("Big Fish")});
  AddRow(&db, "person", {I(0), S("James Cameron")});
  AddRow(&db, "person", {I(1), S("David Yates")});
  AddRow(&db, "person", {I(2), S("J. K. Rowling")});
  AddRow(&db, "person", {I(3), S("Tim Burton")});
  AddRow(&db, "person", {I(4), S("John August")});
  AddRow(&db, "director", {I(0), I(0)});
  AddRow(&db, "director", {I(1), I(1)});
  AddRow(&db, "director", {I(2), I(3)});
  AddRow(&db, "writer", {I(0), I(0)});
  AddRow(&db, "writer", {I(1), I(2)});
  AddRow(&db, "writer", {I(2), I(4)});
  return db;
}

/// \brief A film relation with a searchable int64 year column (numeric
/// probes) next to a person relation and no foreign key: 24 films cycling
/// through "Avatar", "Big Fish", "Harry Potter" and "Avatar Returns"
/// (years 2000-2009), and the people James Cameron and Tim Burton.
inline storage::Database MakeFilmDb() {
  storage::Database db("films");
  db.AddRelation(storage::RelationSchema(
                     "film", {IdAttr("fid"), StrAttr("title"),
                              {"year", storage::ValueType::kInt64,
                               /*searchable=*/true}}))
      .ValueOrDie();
  db.AddRelation(
        storage::RelationSchema("person", {IdAttr("pid"), StrAttr("name")}))
      .ValueOrDie();
  const char* const kTitles[] = {"Avatar", "Big Fish", "Harry Potter",
                                 "Avatar Returns"};
  for (int64_t i = 0; i < 24; ++i) {
    AddRow(&db, "film", {I(i), S(kTitles[i % 4]), I(2000 + i % 10)});
  }
  AddRow(&db, "person", {I(0), S("James Cameron")});
  AddRow(&db, "person", {I(1), S("Tim Burton")});
  return db;
}

/// \brief Seeded random mini-database builder over a compact university
/// schema with branching join paths, a diamond (dept-prof and dept-course
/// both directly and via teaches), and overlapping values — small enough
/// that naive exhaustive enumeration stays cheap, rich enough to stress the
/// location map and the weave. Deterministic per (seed, people).
inline storage::Database MakeUniversityDb(uint64_t seed, size_t people = 12) {
  using storage::Database;
  using storage::RelationSchema;
  Database db("university");
  db.AddRelation(RelationSchema("dept", {IdAttr("did"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("prof", {IdAttr("pid"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("course", {IdAttr("cid"), StrAttr("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("teaches", {IdAttr("pid"), IdAttr("cid")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("worksin", {IdAttr("pid"), IdAttr("did")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("offers", {IdAttr("did"), IdAttr("cid")}))
      .ValueOrDie();
  db.AddForeignKey("teaches", "pid", "prof", "pid").ValueOrDie();
  db.AddForeignKey("teaches", "cid", "course", "cid").ValueOrDie();
  db.AddForeignKey("worksin", "pid", "prof", "pid").ValueOrDie();
  db.AddForeignKey("worksin", "did", "dept", "did").ValueOrDie();
  db.AddForeignKey("offers", "did", "dept", "did").ValueOrDie();
  db.AddForeignKey("offers", "cid", "course", "cid").ValueOrDie();

  Rng rng(seed);
  // Overlapping word pools make values collide across attributes, which is
  // what stresses the location map and the weave.
  static const char* kWords[] = {"logic",   "systems", "algebra",
                                 "networks", "theory",  "data",
                                 "graphics", "compilers"};
  static const char* kNames[] = {"Ada",  "Turing", "Church", "Gauss",
                                 "Noether", "Erdos", "Hopper", "Dijkstra"};
  const size_t depts = 4, courses = 8;
  for (size_t d = 0; d < depts; ++d) {
    AddRow(&db, "dept",
           {I(static_cast<int64_t>(d)),
            S(std::string(kWords[rng.Index(8)]) + " department")});
  }
  for (size_t p = 0; p < people; ++p) {
    AddRow(&db, "prof",
           {I(static_cast<int64_t>(p)), S(kNames[rng.Index(8)])});
  }
  for (size_t c = 0; c < courses; ++c) {
    AddRow(&db, "course",
           {I(static_cast<int64_t>(c)),
            S(std::string(kWords[rng.Index(8)]) + " " +
              kWords[rng.Index(8)])});
  }
  for (size_t p = 0; p < people; ++p) {
    AddRow(&db, "teaches",
           {I(static_cast<int64_t>(p)),
            I(static_cast<int64_t>(rng.Index(courses)))});
    if (rng.Bernoulli(0.5)) {
      AddRow(&db, "teaches",
             {I(static_cast<int64_t>(p)),
              I(static_cast<int64_t>(rng.Index(courses)))});
    }
    AddRow(&db, "worksin",
           {I(static_cast<int64_t>(p)),
            I(static_cast<int64_t>(rng.Index(depts)))});
  }
  for (size_t c = 0; c < courses; ++c) {
    AddRow(&db, "offers",
           {I(static_cast<int64_t>(rng.Index(depts))),
            I(static_cast<int64_t>(c))});
  }
  return db;
}

/// \brief Draws a random existing value from a random searchable string
/// attribute of `db` (falls back to "logic" when unlucky).
inline std::string RandomSearchableValue(const storage::Database& db,
                                         Rng* rng) {
  for (int attempts = 0; attempts < 64; ++attempts) {
    const auto rel_id =
        static_cast<storage::RelationId>(rng->Index(db.num_relations()));
    const storage::Relation& rel = db.relation(rel_id);
    if (rel.num_rows() == 0) continue;
    const auto& attrs = rel.schema().attributes();
    const auto attr = rng->Index(attrs.size());
    if (attrs[attr].type != storage::ValueType::kString) continue;
    const storage::Value& v = rel.at(
        static_cast<storage::RowId>(rng->Index(rel.num_rows())),
        static_cast<storage::AttributeId>(attr));
    if (!v.is_null()) return v.AsString();
  }
  return "logic";
}

/// \brief Canonical forms of a candidate list, for order-insensitive
/// mapping-set comparison.
inline std::set<std::string> CanonicalMappingSet(
    const std::vector<core::CandidateMapping>& candidates) {
  std::set<std::string> out;
  for (const auto& c : candidates) out.insert(c.mapping.Canonical());
  return out;
}

/// \brief Builds a relation of random multi-word values over a small
/// vocabulary, with typo'd words, punctuation-only rows and nulls mixed in
/// — the shapes that stress the n-gram / deletion-neighborhood candidate
/// paths of the text engine. Deterministic per (seed, num_rows).
inline storage::Relation MakeRandomTextRelation(uint64_t seed,
                                                size_t num_rows) {
  const char* vocab[] = {"avatar", "cameron",  "harbor",  "crimson",
                         "story",  "potter",   "wood",    "ed",
                         "night",  "aardvark", "2009",    "x",
                         "weaver", "mapping",  "sample"};
  Rng rng(seed);
  storage::Relation rel(
      storage::RelationSchema("random", {StrAttr("value")}));
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng.Bernoulli(0.05)) {
      rel.AppendUnchecked({storage::Value::Null()});
      continue;
    }
    if (rng.Bernoulli(0.05)) {
      rel.AppendUnchecked({S("!!!")});  // tokenizes to nothing
      continue;
    }
    std::string value;
    const size_t words = 1 + rng.Index(4);
    for (size_t w = 0; w < words; ++w) {
      std::string word = vocab[rng.Index(std::size(vocab))];
      if (rng.Bernoulli(0.15) && word.size() > 2) {
        word[rng.Index(word.size())] = 'q';  // plant a typo
      }
      if (!value.empty()) value += rng.Bernoulli(0.2) ? "-" : " ";
      value += word;
    }
    rel.AppendUnchecked({S(value)});
  }
  return rel;
}

/// \brief One attribute's index and the one-slot vocabulary it is filed
/// into, built by InvertedIndex::Build as an engine builds each attribute.
struct OneAttributeIndex {
  OneAttributeIndex(const storage::Relation& rel,
                    storage::AttributeId attribute,
                    const text::MatchPolicy& policy)
      : vocab(policy, 1), index(Build(rel, attribute, &vocab)) {}

  /// \brief The vocabulary path's candidate rows: resolve, then read the
  /// index (warm calls reuse `resolved`).
  std::vector<storage::RowId> Candidates(
      std::string_view sample, text::ProbeStats* stats = nullptr) const {
    vocab.Resolve(sample, &resolved, stats);
    return vocab.CandidateRows(index, resolved, stats);
  }
  /// \brief The scan reference's candidate rows.
  std::vector<storage::RowId> Scan(std::string_view sample) const {
    return index.ScanCandidateRows(vocab, sample);
  }

  text::Vocabulary vocab;
  text::InvertedIndex index;
  mutable text::ResolvedSample resolved;

 private:
  static text::InvertedIndex Build(const storage::Relation& rel,
                                   storage::AttributeId attribute,
                                   text::Vocabulary* vocab) {
    const text::InvertedIndex::Column column{&rel, attribute};
    return std::move(text::InvertedIndex::Build({&column, 1}, vocab).front());
  }
};

}  // namespace mweaver::testing

#endif  // MWEAVER_TESTS_TEST_UTIL_H_
