// Property tests for the block-encoded posting lists and their merge
// kernels (text/posting_block.h). Two invariants gate every kernel:
//
//  1. The container kernels agree with the standard library (or plain
//     word-wise reference loops) on random inputs.
//  2. IntersectBlocks / UnionBlocks agree exactly with the frozen
//     flat-vector kernels in tests/postings.h on the decoded value sets.
//
// Plus the structural edges: containers straddling 64K boundaries, empty
// and single-element containers, and dense<->sparse conversion round trips.
// The Myers bit-parallel BoundedEditDistance is checked against a plain DP
// reference here too, since it shares the "exact replacement for a scalar
// reference" contract.

#include "text/posting_block.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "postings.h"

namespace mweaver::text {
namespace {

using internal::AndBitmaps;
using internal::IntersectArrayBitmap;
using internal::IntersectU16;
using internal::OrBitmapInto;
using internal::UnionU16Scalar;

// Sorted, duplicate-free random draw of `n` values from [0, universe).
std::vector<uint32_t> RandomSortedSet(std::mt19937* rng, size_t n,
                                      uint32_t universe) {
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  std::vector<uint32_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(dist(*rng));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<uint16_t> RandomSortedU16(std::mt19937* rng, size_t n) {
  const std::vector<uint32_t> v = RandomSortedSet(rng, n, 1 << 16);
  return std::vector<uint16_t>(v.begin(), v.end());
}

TEST(BlockPostingListTest, EmptyList) {
  BlockPostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.num_containers(), 0u);
  EXPECT_FALSE(list.Contains(0));
  EXPECT_TRUE(list.ToVector().empty());
}

TEST(BlockPostingListTest, SingleElementContainers) {
  // One value per container, three containers.
  const std::vector<uint32_t> values = {7, (1u << 16) + 1, (5u << 16)};
  const BlockPostingList list = BlockPostingList::FromSorted(values);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.num_containers(), 3u);
  EXPECT_EQ(list.back(), 5u << 16);
  EXPECT_EQ(list.ToVector(), values);
  for (uint32_t v : values) EXPECT_TRUE(list.Contains(v));
  EXPECT_FALSE(list.Contains(8));
  EXPECT_FALSE(list.Contains(1u << 16));
  EXPECT_FALSE(list.Contains((5u << 16) + 1));
}

TEST(BlockPostingListTest, BoundaryStraddling) {
  // Values hugging each side of the 64K container boundaries.
  const std::vector<uint32_t> values = {0,          65535,      65536,
                                        131071,     131072,     131073,
                                        0xFFFFFFFEu, 0xFFFFFFFFu};
  const BlockPostingList list = BlockPostingList::FromSorted(values);
  EXPECT_EQ(list.ToVector(), values);
  EXPECT_EQ(list.num_containers(), 4u);  // keys 0, 1, 2, 0xFFFF
  EXPECT_EQ(list.back(), 0xFFFFFFFFu);
  for (uint32_t v : values) EXPECT_TRUE(list.Contains(v));
  EXPECT_FALSE(list.Contains(1));
  EXPECT_FALSE(list.Contains(65534));
  EXPECT_FALSE(list.Contains(131074));

  // Intersection across the boundary keeps each value in its container.
  const BlockPostingList other =
      BlockPostingList::FromSorted({65535, 65536, 70000, 0xFFFFFFFFu});
  BlockPostingList out;
  IntersectBlocks(list, other, &out);
  EXPECT_EQ(out.ToVector(),
            (std::vector<uint32_t>{65535, 65536, 0xFFFFFFFFu}));
}

TEST(BlockPostingListTest, DenseSparseRoundTrip) {
  // > kArrayMaxCardinality values in one container forces a bitmap...
  std::vector<uint32_t> dense;
  for (uint32_t v = 0; v < 5000; ++v) dense.push_back(v * 2);
  const BlockPostingList list = BlockPostingList::FromSorted(dense);
  ASSERT_EQ(list.num_containers(), 1u);
  EXPECT_TRUE(list.container(0).is_bitmap);
  EXPECT_EQ(list.ToVector(), dense);
  EXPECT_EQ(list.back(), dense.back());
  EXPECT_TRUE(list.Contains(4998));
  EXPECT_FALSE(list.Contains(4999));

  // ...and intersecting it down below the threshold converts back to array.
  std::vector<uint32_t> sparse;
  for (uint32_t v = 0; v < 100; ++v) sparse.push_back(v * 100);
  const BlockPostingList probe = BlockPostingList::FromSorted(sparse);
  BlockPostingList out;
  KernelStats stats;
  IntersectBlocks(list, probe, &out, &stats);
  ASSERT_EQ(out.num_containers(), 1u);
  EXPECT_FALSE(out.container(0).is_bitmap);
  std::vector<uint32_t> expected;
  for (uint32_t v : sparse) {
    if (v % 2 == 0) expected.push_back(v);
  }
  EXPECT_EQ(out.ToVector(), expected);
  EXPECT_GT(stats.array_bitmap, 0u);

  // Unioning two bitmap-dense lists keeps a bitmap and exact contents.
  std::vector<uint32_t> dense2;
  for (uint32_t v = 0; v < 5000; ++v) dense2.push_back(v * 2 + 1);
  const BlockPostingList list2 = BlockPostingList::FromSorted(dense2);
  BlockPostingList merged;
  UnionBlocks({&list, &list2}, &merged);
  std::vector<uint32_t> both = dense;
  both.insert(both.end(), dense2.begin(), dense2.end());
  std::sort(both.begin(), both.end());
  EXPECT_EQ(merged.ToVector(), both);
  ASSERT_EQ(merged.num_containers(), 1u);
  EXPECT_TRUE(merged.container(0).is_bitmap);
}

TEST(BlockPostingListTest, ResetReusesBuffersAndClears) {
  BlockPostingList list;
  for (uint32_t v = 0; v < 10000; ++v) list.Append(v * 7);
  const size_t bytes_before = list.bytes();
  list.Reset();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.num_containers(), 0u);
  EXPECT_GE(list.bytes(), bytes_before);  // pooled buffers retained
  list.Append(42);
  EXPECT_EQ(list.ToVector(), std::vector<uint32_t>{42});
  EXPECT_EQ(list.back(), 42u);
}

TEST(BlockPostingListTest, CopyFromMatchesSource) {
  std::mt19937 rng(11);
  const std::vector<uint32_t> values = RandomSortedSet(&rng, 20000, 1u << 20);
  const BlockPostingList src = BlockPostingList::FromSorted(values);
  BlockPostingList dst;
  dst.Append(1);  // pre-existing state must be discarded
  dst.CopyFrom(src);
  EXPECT_EQ(dst.ToVector(), values);
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_EQ(dst.back(), src.back());
}

TEST(BlockPostingListTest, RemoveReconvertsAcrossBitmapBreakEven) {
  // kArrayMaxCardinality + 2 values in one container forces a bitmap...
  std::vector<uint32_t> values;
  for (uint32_t v = 0;
       v < static_cast<uint32_t>(BlockPostingList::kArrayMaxCardinality) + 2;
       ++v) {
    values.push_back(v * 3);
  }
  BlockPostingList list = BlockPostingList::FromSorted(values);
  ASSERT_EQ(list.num_containers(), 1u);
  ASSERT_TRUE(list.container(0).is_bitmap);

  // ...one removal stays above the break-even: still a bitmap.
  EXPECT_TRUE(list.Remove(values[10]));
  EXPECT_TRUE(list.container(0).is_bitmap);
  EXPECT_EQ(list.size(), BlockPostingList::kArrayMaxCardinality + 1);

  // The removal that lands cardinality exactly AT the break-even converts
  // back down to a sorted array, preserving contents and order exactly.
  EXPECT_TRUE(list.Remove(values[20]));
  ASSERT_EQ(list.num_containers(), 1u);
  EXPECT_FALSE(list.container(0).is_bitmap);
  EXPECT_EQ(list.size(), BlockPostingList::kArrayMaxCardinality);
  std::vector<uint32_t> expected = values;
  expected.erase(expected.begin() + 20);
  expected.erase(expected.begin() + 10);
  EXPECT_EQ(list.ToVector(), expected);
  EXPECT_FALSE(list.Contains(values[10]));
  EXPECT_FALSE(list.Contains(values[20]));
  EXPECT_TRUE(list.Contains(values[11]));

  // Removing a value that is gone (or never existed) is a no-op miss.
  EXPECT_FALSE(list.Remove(values[10]));
  EXPECT_FALSE(list.Remove(values.back() + 3));

  // Appending back across the break-even re-converts upward: the same
  // container crosses array -> bitmap a second time, contents exact.
  const uint32_t base = list.back() + 3;
  expected.push_back(base);
  expected.push_back(base + 3);
  list.Append(base);
  list.Append(base + 3);
  ASSERT_EQ(list.num_containers(), 1u);
  EXPECT_TRUE(list.container(0).is_bitmap);
  EXPECT_EQ(list.ToVector(), expected);
}

TEST(BlockPostingListTest, RemoveAtContainerBoundaries) {
  // Values hugging each side of the 64K container boundaries, plus the
  // extremes of the u32 domain.
  const std::vector<uint32_t> values = {0,          65535,      65536,
                                        131071,     131072,     131073,
                                        0xFFFFFFFEu, 0xFFFFFFFFu};
  BlockPostingList list = BlockPostingList::FromSorted(values);
  ASSERT_EQ(list.num_containers(), 4u);

  // Remove the straddling pair: each value leaves its own container.
  EXPECT_TRUE(list.Remove(65535));
  EXPECT_TRUE(list.Remove(65536));
  EXPECT_FALSE(list.Contains(65535));
  EXPECT_FALSE(list.Contains(65536));
  EXPECT_TRUE(list.Contains(0));
  EXPECT_TRUE(list.Contains(131071));
  EXPECT_EQ(list.ToVector(), (std::vector<uint32_t>{
                                 0, 131071, 131072, 131073, 0xFFFFFFFEu,
                                 0xFFFFFFFFu}));

  // Key 1 still holds 131071, so no container went away yet.
  EXPECT_EQ(list.num_containers(), 4u);

  // Removing the global maximum moves back(); Append accepts any value
  // greater than the NEW maximum, including values below the old one.
  EXPECT_TRUE(list.Remove(0xFFFFFFFFu));
  EXPECT_EQ(list.back(), 0xFFFFFFFEu);
  EXPECT_TRUE(list.Remove(0xFFFFFFFEu));
  EXPECT_EQ(list.back(), 131073u);
  EXPECT_EQ(list.num_containers(), 3u);  // key 0xFFFF emptied: deactivated
  list.Append(131074);
  EXPECT_EQ(list.back(), 131074u);
  EXPECT_EQ(list.ToVector(),
            (std::vector<uint32_t>{0, 131071, 131072, 131073, 131074}));

  // Draining the whole list leaves a clean, reusable empty list.
  for (uint32_t v : std::vector<uint32_t>{0, 131071, 131072, 131073, 131074}) {
    EXPECT_TRUE(list.Remove(v));
  }
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.num_containers(), 0u);
  list.Append(7);
  EXPECT_EQ(list.ToVector(), std::vector<uint32_t>{7});
}

// --- Container kernels vs reference semantics ------------------------------

TEST(KernelEqualityTest, IntersectU16MatchesStdSetIntersection) {
  std::mt19937 rng(42);
  uint64_t gallops = 0;
  uint64_t skewed_rounds = 0;
  for (int round = 0; round < 200; ++round) {
    // Mix balanced and skewed sizes so both the two-pointer merge and the
    // galloping path are exercised.
    const size_t na = 1 + static_cast<size_t>(rng() % 400);
    const size_t nb = (round % 4 == 0)
                          ? na * 20 + 1  // skewed: galloping path
                          : 1 + static_cast<size_t>(rng() % 400);
    const std::vector<uint16_t> a = RandomSortedU16(&rng, na);
    const std::vector<uint16_t> b = RandomSortedU16(&rng, nb);
    // Dedup can shrink a draw, so classify by the sizes actually passed.
    const size_t small = std::min(a.size(), b.size());
    const size_t large = std::max(a.size(), b.size());
    if (small * 16 < large) ++skewed_rounds;
    std::vector<uint16_t> got(small);
    got.resize(IntersectU16(a.data(), a.size(), b.data(), b.size(),
                            got.data(), &gallops));
    std::vector<uint16_t> want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    EXPECT_EQ(got, want) << "round " << round << " na=" << a.size()
                         << " nb=" << b.size();
  }
  // One gallop per intersection whose sizes are skewed more than 16x, and
  // none for the balanced ones.
  EXPECT_GT(skewed_rounds, 0u);
  EXPECT_EQ(gallops, skewed_rounds);
}

TEST(KernelEqualityTest, IntersectU16Edges) {
  const std::vector<uint16_t> a = {5};
  const std::vector<uint16_t> b = {0, 5, 65535};
  std::vector<uint16_t> out(4);
  uint64_t gallops = 0;
  // Empty inputs.
  EXPECT_EQ(IntersectU16(nullptr, 0, b.data(), b.size(), out.data(),
                         &gallops),
            0u);
  EXPECT_EQ(IntersectU16(a.data(), a.size(), nullptr, 0, out.data(),
                         &gallops),
            0u);
  // Single element and max u16.
  size_t n = IntersectU16(a.data(), a.size(), b.data(), b.size(), out.data(),
                          &gallops);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0], 5);
  const std::vector<uint16_t> top = {65535};
  n = IntersectU16(top.data(), 1, b.data(), b.size(), out.data(), &gallops);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0], 65535);
}

TEST(KernelEqualityTest, UnionU16ScalarIsExact) {
  std::mt19937 rng(43);
  for (int round = 0; round < 100; ++round) {
    const std::vector<uint16_t> a =
        RandomSortedU16(&rng, 1 + rng() % 300);
    const std::vector<uint16_t> b =
        RandomSortedU16(&rng, 1 + rng() % 300);
    std::vector<uint16_t> got(a.size() + b.size());
    got.resize(UnionU16Scalar(a.data(), a.size(), b.data(), b.size(),
                              got.data()));
    std::vector<uint16_t> want = a;
    want.insert(want.end(), b.begin(), b.end());
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(KernelEqualityTest, BitmapKernelsMatchScalarSemantics) {
  std::mt19937 rng(44);
  std::vector<uint64_t> a(BlockPostingList::kBitmapWords);
  std::vector<uint64_t> b(BlockPostingList::kBitmapWords);
  for (auto& w : a) w = (static_cast<uint64_t>(rng()) << 32) | rng();
  for (auto& w : b) w = (static_cast<uint64_t>(rng()) << 32) | rng();

  std::vector<uint64_t> anded(BlockPostingList::kBitmapWords);
  const uint32_t card = AndBitmaps(a.data(), b.data(), anded.data());
  uint32_t want_card = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(anded[i], a[i] & b[i]);
    want_card += static_cast<uint32_t>(std::popcount(a[i] & b[i]));
  }
  EXPECT_EQ(card, want_card);

  std::vector<uint64_t> ored = a;
  OrBitmapInto(b.data(), ored.data());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(ored[i], a[i] | b[i]);
  }
}

TEST(KernelEqualityTest, IntersectArrayBitmapMatchesContains) {
  std::mt19937 rng(45);
  std::vector<uint64_t> bm(BlockPostingList::kBitmapWords);
  for (auto& w : bm) w = (static_cast<uint64_t>(rng()) << 32) | rng();
  const std::vector<uint16_t> a = RandomSortedU16(&rng, 500);
  std::vector<uint16_t> got(a.size());
  got.resize(IntersectArrayBitmap(a.data(), a.size(), bm.data(), got.data()));
  std::vector<uint16_t> want;
  for (uint16_t x : a) {
    if ((bm[x >> 6] >> (x & 63)) & 1) want.push_back(x);
  }
  EXPECT_EQ(got, want);
}

// --- Block merges vs the frozen flat-vector reference kernels ---------------

TEST(BlockVsReferenceTest, IntersectMatchesFlatKernels) {
  std::mt19937 rng(46);
  for (int round = 0; round < 50; ++round) {
    // Vary density so array x array, array x bitmap, and bitmap x bitmap
    // pairs all occur (universe spans ~3 containers).
    const size_t na = 1 + static_cast<size_t>(rng() % 30000);
    const size_t nb = 1 + static_cast<size_t>(rng() % 30000);
    const std::vector<uint32_t> a = RandomSortedSet(&rng, na, 200000);
    const std::vector<uint32_t> b = RandomSortedSet(&rng, nb, 200000);

    std::vector<uint32_t> want;
    IntersectSorted(a, b, &want);

    const BlockPostingList la = BlockPostingList::FromSorted(a);
    const BlockPostingList lb = BlockPostingList::FromSorted(b);
    BlockPostingList out;
    KernelStats stats;
    IntersectBlocks(la, lb, &out, &stats);
    EXPECT_EQ(out.ToVector(), want) << "round " << round;
    EXPECT_EQ(out.size(), want.size());
    // Only array x array merges can gallop.
    EXPECT_LE(stats.scalar_fallback, stats.array_array);
  }
}

TEST(BlockVsReferenceTest, UnionMatchesFlatKernels) {
  std::mt19937 rng(47);
  for (int round = 0; round < 30; ++round) {
    // 1..40 lists crosses the kUnionArrayMergeMaxLists boundary both ways,
    // and round-robin densities hit the bitmap accumulation path.
    const size_t k = 1 + static_cast<size_t>(rng() % 40);
    std::vector<std::vector<uint32_t>> inputs(k);
    std::vector<const std::vector<uint32_t>*> flat_ptrs;
    std::vector<BlockPostingList> lists(k);
    std::vector<const BlockPostingList*> block_ptrs;
    for (size_t i = 0; i < k; ++i) {
      const size_t n = (i % 5 == 0)
                           ? 1 + static_cast<size_t>(rng() % 20000)  // dense
                           : 1 + static_cast<size_t>(rng() % 200);   // sparse
      inputs[i] = RandomSortedSet(&rng, n, 150000);
      flat_ptrs.push_back(&inputs[i]);
      lists[i] = BlockPostingList::FromSorted(inputs[i]);
      block_ptrs.push_back(&lists[i]);
    }

    std::vector<uint32_t> want;
    MergeScratch<uint32_t> scratch;
    UnionSorted(flat_ptrs, &want, &scratch);

    BlockPostingList out;
    UnionBlocks(block_ptrs, &out);
    EXPECT_EQ(out.ToVector(), want) << "round " << round << " k=" << k;
    EXPECT_EQ(out.size(), want.size());
  }
}

TEST(BlockVsReferenceTest, PostDeleteMergesMatchFlatKernels) {
  // Lists that underwent streaming removals — including containers pushed
  // back across the bitmap break-even and containers emptied entirely —
  // must merge exactly like flat vectors of their surviving values, on
  // both the intersection and union paths (and therefore identically in
  // vector and forced-scalar builds, which share this suite).
  std::mt19937 rng(48);
  for (int round = 0; round < 30; ++round) {
    const size_t na = 1 + static_cast<size_t>(rng() % 30000);
    const size_t nb = 1 + static_cast<size_t>(rng() % 30000);
    std::vector<uint32_t> a = RandomSortedSet(&rng, na, 200000);
    std::vector<uint32_t> b = RandomSortedSet(&rng, nb, 200000);
    BlockPostingList la = BlockPostingList::FromSorted(a);
    BlockPostingList lb = BlockPostingList::FromSorted(b);

    // Remove ~40% of each side's values through the streaming path; round
    // 0 deletes one side entirely (the all-tombstoned posting list).
    const auto prune = [&rng, round](std::vector<uint32_t>* flat,
                                     BlockPostingList* list, bool drain) {
      std::vector<uint32_t> kept;
      for (uint32_t v : *flat) {
        if (drain || rng() % 5 < 2) {
          ASSERT_TRUE(list->Remove(v));
        } else {
          kept.push_back(v);
        }
      }
      *flat = std::move(kept);
    };
    prune(&a, &la, round == 0);
    prune(&b, &lb, false);
    ASSERT_EQ(la.ToVector(), a) << "round " << round;
    ASSERT_EQ(lb.ToVector(), b) << "round " << round;

    std::vector<uint32_t> want_and;
    IntersectSorted(a, b, &want_and);
    BlockPostingList out_and;
    IntersectBlocks(la, lb, &out_and);
    EXPECT_EQ(out_and.ToVector(), want_and) << "round " << round;

    std::vector<uint32_t> want_or;
    MergeScratch<uint32_t> scratch;
    UnionSorted({&a, &b}, &want_or, &scratch);
    BlockPostingList out_or;
    UnionBlocks({&la, &lb}, &out_or);
    EXPECT_EQ(out_or.ToVector(), want_or) << "round " << round;
  }
}

TEST(BlockVsReferenceTest, UnionEdgeShapes) {
  BlockPostingList out;
  // No lists.
  UnionBlocks({}, &out);
  EXPECT_TRUE(out.empty());
  // One list: copy-through.
  const BlockPostingList single = BlockPostingList::FromSorted({1, 2, 65536});
  UnionBlocks({&single}, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<uint32_t>{1, 2, 65536}));
  // Empty lists mixed in.
  const BlockPostingList empty;
  UnionBlocks({&empty, &single, &empty}, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<uint32_t>{1, 2, 65536}));
  // Disjoint container keys: containers pass through per key.
  const BlockPostingList other = BlockPostingList::FromSorted({131072});
  UnionBlocks({&single, &other}, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<uint32_t>{1, 2, 65536, 131072}));
}

// --- Myers bit-parallel edit distance vs DP reference ------------------------

// Plain full-matrix Levenshtein, the textbook reference.
size_t FullEditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t BoundedReference(std::string_view a, std::string_view b, size_t max) {
  return std::min(FullEditDistance(a, b), max + 1);
}

TEST(BoundedEditDistanceTest, MatchesReferenceOnRandomStrings) {
  std::mt19937 rng(48);
  const std::string alphabet = "abcd";  // small alphabet: frequent matches
  for (int round = 0; round < 300; ++round) {
    // Lengths cross the 64-char Myers/DP split in both operands.
    const size_t la = rng() % 100;
    const size_t lb = rng() % 100;
    std::string a(la, 'a');
    std::string b(lb, 'a');
    for (char& c : a) c = alphabet[rng() % alphabet.size()];
    for (char& c : b) c = alphabet[rng() % alphabet.size()];
    for (size_t max = 0; max <= 3; ++max) {
      EXPECT_EQ(BoundedEditDistance(a, b, max), BoundedReference(a, b, max))
          << "a=" << a << " b=" << b << " max=" << max;
    }
  }
}

TEST(BoundedEditDistanceTest, EdgeCases) {
  EXPECT_EQ(BoundedEditDistance("", "", 2), 0u);
  EXPECT_EQ(BoundedEditDistance("", "ab", 2), 2u);
  EXPECT_EQ(BoundedEditDistance("ab", "", 1), 2u);  // max + 1: exceeded
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 0), 0u);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", 0), 1u);  // max + 1
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  // Exactly 64 and 65 chars: the Myers word boundary.
  const std::string s64(64, 'x');
  const std::string s65(65, 'x');
  EXPECT_EQ(BoundedEditDistance(s64, s64, 2), 0u);
  EXPECT_EQ(BoundedEditDistance(s64, s65, 2), 1u);
  std::string mutated = s64;
  mutated[10] = 'y';
  mutated[50] = 'z';
  EXPECT_EQ(BoundedEditDistance(s64, mutated, 3), 2u);
  // High-bit (non-ASCII) bytes must index the Peq table safely.
  const std::string hi1 = "caf\xc3\xa9";
  const std::string hi2 = "cafe";
  EXPECT_EQ(BoundedEditDistance(hi1, hi2, 3),
            BoundedReference(hi1, hi2, 3));
}

}  // namespace
}  // namespace mweaver::text
