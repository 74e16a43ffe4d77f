// Frozen flat-vector merge kernels for sorted posting lists: the reference
// implementation the block-encoded kernels of text/posting_block.h are
// checked against (posting_block_test). They were the inverted index's
// kernels before block encoding; production code no longer uses them.
//
// They write into caller-owned scratch buffers, so a call performs no heap
// allocation beyond its output, and the intersection gallops (doubling
// binary search) when one list is much shorter than the other — the common
// shape when a selective token meets a stop-word-sized posting list.
#ifndef MWEAVER_TESTS_POSTINGS_H_
#define MWEAVER_TESTS_POSTINGS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mweaver::text {

namespace internal {

/// First index in [lo, hi) of sorted `v` with v[i] >= x, found by galloping
/// from `lo` (amortized O(log gap) instead of O(log n)).
template <typename T>
size_t GallopLowerBound(const std::vector<T>& v, size_t lo, T x) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < v.size() && v[hi] < x) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, v.size());
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<ptrdiff_t>(lo),
                       v.begin() + static_cast<ptrdiff_t>(hi), x) -
      v.begin());
}

}  // namespace internal

/// \brief Intersection of two sorted, duplicate-free lists into `*out`
/// (cleared first; must not alias the inputs). Gallops through the longer
/// list when the sizes are skewed by >= kGallopRatio.
template <typename T>
void IntersectSorted(const std::vector<T>& a, const std::vector<T>& b,
                     std::vector<T>* out) {
  constexpr size_t kGallopRatio = 16;
  out->clear();
  if (a.empty() || b.empty()) return;
  const std::vector<T>& small = a.size() <= b.size() ? a : b;
  const std::vector<T>& large = a.size() <= b.size() ? b : a;
  if (small.size() * kGallopRatio < large.size()) {
    size_t pos = 0;
    for (const T& x : small) {
      pos = internal::GallopLowerBound(large, pos, x);
      if (pos == large.size()) break;
      if (large[pos] == x) {
        out->push_back(x);
        ++pos;
      }
    }
    return;
  }
  std::set_intersection(small.begin(), small.end(), large.begin(),
                        large.end(), std::back_inserter(*out));
}

/// \brief Sorted, deduplicated union of `lists` into `*out` (cleared first)
/// over a caller-owned scratch buffer: a k-way heap merge for few lists
/// (linear in output, no sort), a concatenate + sort + unique into the
/// scratch for many (std::sort on a flat buffer beats per-element heap
/// operations once k is large). Each input list must be sorted and
/// duplicate-free.
template <typename T>
struct MergeScratch {
  std::vector<std::pair<T, size_t>> heap;
  std::vector<size_t> pos;
  std::vector<T> flat;
};

/// Above this many input lists the union concatenates and sorts instead of
/// heap-merging.
inline constexpr size_t kUnionHeapMaxLists = 16;

template <typename T>
void UnionSorted(const std::vector<const std::vector<T>*>& lists,
                 std::vector<T>* out, MergeScratch<T>* scratch) {
  out->clear();
  if (lists.empty()) return;
  if (lists.size() == 1) {
    out->assign(lists[0]->begin(), lists[0]->end());
    return;
  }
  if (lists.size() > kUnionHeapMaxLists) {
    std::vector<T>& flat = scratch->flat;
    flat.clear();
    for (const std::vector<T>* list : lists) {
      flat.insert(flat.end(), list->begin(), list->end());
    }
    std::sort(flat.begin(), flat.end());
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
    out->assign(flat.begin(), flat.end());
    return;
  }
  // Heap entries: (next value of list i, i). Min-heap via greater-than.
  auto greater = [](const std::pair<T, size_t>& x,
                    const std::pair<T, size_t>& y) {
    return x.first > y.first;
  };
  std::vector<std::pair<T, size_t>>& heap = scratch->heap;
  std::vector<size_t>& pos = scratch->pos;
  heap.clear();
  pos.assign(lists.size(), 0);
  size_t total = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    total += lists[i]->size();
    if (!lists[i]->empty()) heap.emplace_back((*lists[i])[0], i);
  }
  out->reserve(total);
  std::make_heap(heap.begin(), heap.end(), greater);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const auto [value, i] = heap.back();
    heap.pop_back();
    if (out->empty() || out->back() != value) out->push_back(value);
    if (++pos[i] < lists[i]->size()) {
      heap.emplace_back((*lists[i])[pos[i]], i);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
}

/// \brief Union of `lists` via a reusable bitmap over the value universe
/// [0, universe): O(total elements + universe/64), independent of the list
/// count. The right kernel for high-fanout unions (hundreds of short
/// posting lists) where even a flat sort pays an O(n log n) factor. Values
/// must be < universe.
template <typename T>
void UnionSortedBitmap(const std::vector<const std::vector<T>*>& lists,
                       size_t universe, std::vector<T>* out,
                       std::vector<uint64_t>* bits) {
  const size_t words = (universe + 63) / 64;
  bits->assign(words, 0);
  size_t total = 0;
  for (const std::vector<T>* list : lists) {
    total += list->size();
    for (const T& x : *list) {
      (*bits)[static_cast<size_t>(x) >> 6] |=
          uint64_t{1} << (static_cast<size_t>(x) & 63);
    }
  }
  out->clear();
  out->reserve(total);
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = (*bits)[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      out->push_back(static_cast<T>(w * 64 + static_cast<size_t>(b)));
      word &= word - 1;
    }
  }
}

}  // namespace mweaver::text

#endif  // MWEAVER_TESTS_POSTINGS_H_
