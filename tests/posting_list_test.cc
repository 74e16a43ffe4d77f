// Property tests for the posting-list merge kernels (text/posting_list.h),
// with the standard library as the oracle: IntersectPostings must equal
// std::set_intersection and UnionPostings std::set_union, on random inputs
// that cross both union strategies, mix in empty lists and reach values
// past 65,535 and up to UINT32_MAX. Each call's kernel counters are
// asserted exactly, since bench/baselines/BENCH_kernels.json gates them.
// Plus the index-layer delete: an InvertedIndex that removed rows answers
// like one built fresh over the surviving rows.

#include "text/posting_list.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace mweaver::text {
namespace {

// Sorted, duplicate-free random draw of up to `n` values from
// [base, base + span).
PostingList RandomList(std::mt19937* rng, size_t n, uint32_t base,
                       uint32_t span) {
  std::uniform_int_distribution<uint32_t> dist(0, span - 1);
  PostingList values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(base + dist(*rng));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

// Where a round's values live: low ids, past one u16 span, and the top of
// the u32 range.
constexpr uint32_t kBases[] = {0, (3u << 16) + 17, UINT32_MAX - 199999};
constexpr uint32_t kBaseSpan = 200000;

void ExpectCounts(const KernelStats& got, uint64_t array_array,
                  uint64_t array_bitmap, uint64_t scalar_fallback,
                  const std::string& label) {
  EXPECT_EQ(got.array_array, array_array) << label;
  EXPECT_EQ(got.array_bitmap, array_bitmap) << label;
  EXPECT_EQ(got.scalar_fallback, scalar_fallback) << label;
}

// ------------------------------------------------------------ Intersect --

TEST(IntersectPostingsTest, MatchesStdSetIntersection) {
  std::mt19937 rng(42);
  PostingList out;  // reused across rounds, as the probe scratch is
  uint64_t skewed_rounds = 0;
  for (int round = 0; round < 300; ++round) {
    // Mix balanced, skewed (galloping) and empty inputs.
    const uint32_t base = kBases[round % 3];
    const size_t na = (round % 25 == 0) ? 0 : 1 + rng() % 400;
    const size_t nb = (round % 4 == 0) ? na * 20 + 1 : 1 + rng() % 400;
    const uint32_t span = (round % 2 == 0) ? 2048 : kBaseSpan;
    const PostingList a = RandomList(&rng, na, base, span);
    const PostingList b = RandomList(&rng, nb, base, span);
    PostingList want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    KernelStats stats;
    IntersectPostings(a, b, &out, &stats);
    const std::string label = "round " + std::to_string(round) +
                              " na=" + std::to_string(a.size()) +
                              " nb=" + std::to_string(b.size());
    EXPECT_EQ(out, want) << label;
    // One merge per intersection of two non-empty lists; it gallops when
    // the sizes actually drawn differ by more than 16x.
    const size_t small = std::min(a.size(), b.size());
    const size_t large = std::max(a.size(), b.size());
    const bool merged = small > 0;
    const bool gallops = merged && small * 16 < large;
    skewed_rounds += gallops;
    ExpectCounts(stats, merged, 0, gallops, label);
  }
  EXPECT_GT(skewed_rounds, 0u);
}

TEST(IntersectPostingsTest, Edges) {
  const PostingList empty;
  const PostingList top = {0, 65535, 65536, UINT32_MAX - 1, UINT32_MAX};
  PostingList out = {9, 9, 9};  // stale contents are overwritten
  KernelStats stats;
  IntersectPostings(empty, top, &out, &stats);
  EXPECT_TRUE(out.empty());
  IntersectPostings(top, empty, &out, &stats);
  EXPECT_TRUE(out.empty());
  ExpectCounts(stats, 0, 0, 0, "empty inputs run no kernel");

  IntersectPostings(top, {65536, UINT32_MAX}, &out, &stats);
  EXPECT_EQ(out, (PostingList{65536, UINT32_MAX}));
  ExpectCounts(stats, 1, 0, 0, "balanced");

  PostingList wide;
  for (uint32_t v = 0; v < 100; ++v) wide.push_back(UINT32_MAX - 99 + v);
  IntersectPostings({UINT32_MAX}, wide, &out, &stats);
  EXPECT_EQ(out, PostingList{UINT32_MAX});
  ExpectCounts(stats, 2, 0, 1, "1 vs 100 gallops");
}

// ---------------------------------------------------------------- Union --

// The oracle: a fold of std::set_union, widened to T.
template <typename T>
std::vector<T> StdUnion(const std::vector<PostingList>& lists) {
  PostingList acc;
  for (const PostingList& list : lists) {
    PostingList next;
    std::set_union(acc.begin(), acc.end(), list.begin(), list.end(),
                   std::back_inserter(next));
    acc = std::move(next);
  }
  return std::vector<T>(acc.begin(), acc.end());
}

std::vector<const PostingList*> Pointers(const std::vector<PostingList>& v) {
  std::vector<const PostingList*> ptrs;
  for (const PostingList& list : v) ptrs.push_back(&list);
  return ptrs;
}

// Random union rounds of one strategy, with empty lists mixed in; every
// round's result and counters are checked. `kind` 0: 2-8 non-empty lists
// of <= 4,096 values in total (merge cascade); 1: 9-32 non-empty lists
// (bitmap); 2: 2-8 non-empty lists holding > 4,096 values (bitmap).
template <typename T>
void CheckUnionRounds(int kind, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<T> out = {7};  // reused across rounds; stale value dropped
  for (int round = 0; round < 60; ++round) {
    const size_t inputs = kind == 1 ? 9 + rng() % 24 : 2 + rng() % 7;
    const uint32_t base = kBases[round % 3];
    const uint32_t span = (round % 2 == 0) ? 2048 : kBaseSpan;
    std::vector<PostingList> lists;
    size_t total = 0;
    for (size_t i = 0; i < inputs; ++i) {
      if (rng() % 4 == 0) lists.emplace_back();
      const size_t n = kind == 0   ? 1 + rng() % (4096 / kUnionMergeMaxLists)
                       : kind == 1 ? 1 + rng() % 300
                                   : 2100 + rng() % 1500;
      lists.push_back(RandomList(&rng, n, base, kind == 2 ? kBaseSpan : span));
      total += lists.back().size();
    }
    const std::string label = "kind " + std::to_string(kind) + " round " +
                              std::to_string(round) + " inputs=" +
                              std::to_string(inputs) + " total=" +
                              std::to_string(total);
    KernelStats stats;
    UnionPostings(Pointers(lists), &out, &stats);
    EXPECT_EQ(out, StdUnion<T>(lists)) << label;
    if (kind == 0) {
      ASSERT_LE(total, kUnionMergeMaxValues) << label;
      ExpectCounts(stats, inputs - 1, 0, inputs - 1, label + " (cascade)");
    } else {
      ASSERT_TRUE(inputs > kUnionMergeMaxLists || total > kUnionMergeMaxValues)
          << label;
      ExpectCounts(stats, 0, inputs, 0, label + " (bitmap)");
    }
  }
}

TEST(UnionPostingsTest, MergeCascadeMatchesStdSetUnion) {
  CheckUnionRounds<uint32_t>(0, 43);
  CheckUnionRounds<int64_t>(0, 44);
}

TEST(UnionPostingsTest, ManyListsBitmapMatchesStdSetUnion) {
  CheckUnionRounds<uint32_t>(1, 45);
  CheckUnionRounds<int64_t>(1, 46);
}

TEST(UnionPostingsTest, ManyValuesBitmapMatchesStdSetUnion) {
  CheckUnionRounds<uint32_t>(2, 47);
  CheckUnionRounds<int64_t>(2, 48);
}

TEST(UnionPostingsTest, CascadeSpansTheWholeU32Range) {
  // The cascade never builds a bitmap, so its inputs may be arbitrarily
  // far apart.
  const std::vector<PostingList> lists = {
      {0, 70000, UINT32_MAX}, {}, {1, UINT32_MAX - 1}, {65536}};
  std::vector<int64_t> out;
  KernelStats stats;
  UnionPostings(Pointers(lists), &out, &stats);
  EXPECT_EQ(out, StdUnion<int64_t>(lists));
  ExpectCounts(stats, 2, 0, 2, "3 non-empty lists");
}

TEST(UnionPostingsTest, Thresholds) {
  std::vector<uint32_t> out;
  // No lists, only empty lists, and one non-empty list among empties: no
  // kernel runs.
  KernelStats stats;
  UnionPostings({}, &out, &stats);
  EXPECT_TRUE(out.empty());
  const PostingList empty;
  const PostingList single = {1, 2, 65536};
  UnionPostings({&empty, &empty}, &out, &stats);
  EXPECT_TRUE(out.empty());
  UnionPostings({&empty, &single, &empty}, &out, &stats);
  EXPECT_EQ(out, single);
  ExpectCounts(stats, 0, 0, 0, "copied");

  // Eight lists of 512 values: exactly at both limits, so 7 merges.
  std::vector<PostingList> lists(kUnionMergeMaxLists);
  for (size_t i = 0; i < lists.size(); ++i) {
    for (uint32_t v = 0; v < kUnionMergeMaxValues / kUnionMergeMaxLists; ++v) {
      lists[i].push_back(v * 8 + static_cast<uint32_t>(i));
    }
  }
  stats = {};
  UnionPostings(Pointers(lists), &out, &stats);
  EXPECT_EQ(out, StdUnion<uint32_t>(lists));
  ExpectCounts(stats, 7, 0, 7, "8 lists, 4096 values");

  // One value more: the bitmap, one scatter per list.
  lists.back().push_back(1u << 20);
  stats = {};
  UnionPostings(Pointers(lists), &out, &stats);
  EXPECT_EQ(out, StdUnion<uint32_t>(lists));
  ExpectCounts(stats, 0, 8, 0, "8 lists, 4097 values");

  // Nine one-value lists: the bitmap although the lists are tiny.
  lists.assign(kUnionMergeMaxLists + 1, PostingList{});
  for (size_t i = 0; i < lists.size(); ++i) {
    lists[i].push_back(UINT32_MAX - static_cast<uint32_t>(i) * 3);
  }
  stats = {};
  UnionPostings(Pointers(lists), &out, &stats);
  EXPECT_EQ(out, StdUnion<uint32_t>(lists));
  ExpectCounts(stats, 0, 9, 0, "9 lists, 9 values");
}

// ------------------------------------------------------ Index-layer delete --

TEST(InvertedIndexDeleteTest, RemovedRowsMatchFreshBuild) {
  // Rows removed through RemoveRow (a lower_bound + erase per posting
  // list, and an erase of each token whose list empties) must leave
  // exactly the tokens and postings a fresh build over the surviving rows
  // has, under every match mode's probe path.
  const MatchPolicy policies[] = {
      MatchPolicy::Exact(), MatchPolicy::TokenSubset(),
      MatchPolicy::Substring(), MatchPolicy::Fuzzy(1), MatchPolicy::Fuzzy(2)};
  const std::vector<std::string> samples = {
      "avatar", "cameron story", "ar", "wod", "potter night", "crimsn",
      "x",      "mapping sample", "zzz", "!!!"};
  for (const MatchPolicy& policy : policies) {
    storage::Relation rel = ::mweaver::testing::MakeRandomTextRelation(7, 400);
    ::mweaver::testing::OneAttributeIndex live(rel, 0, policy);
    const size_t built_tokens = live.index.num_tokens();
    std::vector<std::string> tokens;
    std::vector<InvertedIndex::TokenId> ids;
    std::mt19937 rng(49);
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      const auto row = static_cast<storage::RowId>(r);
      // Remove ~40% of the rows; rows 0-19 all, so some postings empty out.
      if (r >= 20 && rng() % 5 >= 2) continue;
      const storage::ValueView v = rel.at(row, 0);
      if (!v.is_null()) {
        DistinctTokensInto(v.AsString(), &tokens);
        ids.clear();
        for (const std::string& t : tokens) {
          ids.push_back(live.vocab.Find(t, 0).value());
        }
        live.index.RemoveRow(row, ids);
      }
      ASSERT_TRUE(rel.Delete(row).ok());
    }
    const ::mweaver::testing::OneAttributeIndex fresh(rel, 0, policy);
    EXPECT_EQ(live.index.num_indexed_rows(), fresh.index.num_indexed_rows());
    EXPECT_EQ(live.index.num_tokens(), fresh.index.num_tokens());
    EXPECT_LT(fresh.index.num_tokens(), built_tokens);  // some emptied out
    for (const std::string& sample : samples) {
      const std::vector<storage::RowId> rows = live.Candidates(sample);
      EXPECT_EQ(rows, fresh.Candidates(sample)) << sample;
      EXPECT_EQ(rows, live.Scan(sample)) << sample;
    }
  }
}

}  // namespace
}  // namespace mweaver::text
