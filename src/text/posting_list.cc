#include "text/posting_list.h"

#include <algorithm>
#include <bit>

namespace mweaver::text {

namespace {

// Two-pointer union of sorted, duplicate-free a and b into out (room for
// na + nb values); returns the number written.
template <typename T>
size_t MergeUnion(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                  T* out) {
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    out[n++] = static_cast<T>(std::min(x, y));
    i += (x <= y);
    j += (y <= x);
  }
  while (i < na) out[n++] = static_cast<T>(a[i++]);
  while (j < nb) out[n++] = static_cast<T>(b[j++]);
  return n;
}

// Union scratch. Thread-local: concurrent service workers probe one shared
// engine.
struct UnionScratch {
  PostingList acc;
  PostingList tmp;
  std::vector<uint64_t> bits;
};

UnionScratch& LocalUnionScratch() {
  thread_local UnionScratch scratch;
  return scratch;
}

}  // namespace

void IntersectPostings(const PostingList& a, const PostingList& b,
                       PostingList* out, KernelStats* stats) {
  out->clear();
  if (a.empty() || b.empty()) return;
  // Iterate the shorter list; gallop through the longer when skewed.
  const uint32_t* x = a.data();
  const uint32_t* y = b.data();
  size_t nx = a.size();
  size_t ny = b.size();
  if (nx > ny) {
    std::swap(x, y);
    std::swap(nx, ny);
  }
  if (stats != nullptr) ++stats->array_array;
  out->resize(nx);
  uint32_t* dst = out->data();
  size_t n = 0;
  if (nx * 16 < ny) {
    if (stats != nullptr) ++stats->scalar_fallback;
    size_t j = 0;
    for (size_t i = 0; i < nx; ++i) {
      const uint32_t v = x[i];
      // Gallop: doubling probe from j, then binary search the bracket.
      size_t step = 1;
      size_t lo = j;
      size_t hi = j;
      while (hi < ny && y[hi] < v) {
        lo = hi + 1;
        hi += step;
        step *= 2;
      }
      hi = std::min(hi, ny);
      j = static_cast<size_t>(std::lower_bound(y + lo, y + hi, v) - y);
      if (j == ny) break;
      if (y[j] == v) {
        dst[n++] = v;
        ++j;
      }
    }
  } else {
    size_t i = 0;
    size_t j = 0;
    while (i < nx && j < ny) {
      const uint32_t u = x[i];
      const uint32_t v = y[j];
      dst[n] = u;
      n += (u == v);
      i += (u <= v);
      j += (v <= u);
    }
  }
  out->resize(n);
}

template <typename T>
void UnionPostings(const std::vector<const PostingList*>& lists,
                   std::vector<T>* out, KernelStats* stats) {
  out->clear();
  size_t inputs = 0;
  size_t total = 0;
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  const PostingList* only = nullptr;
  for (const PostingList* list : lists) {
    if (list->empty()) continue;
    ++inputs;
    total += list->size();
    lo = std::min(lo, list->front());
    hi = std::max(hi, list->back());
    only = list;
  }
  if (inputs == 0) return;
  if (inputs == 1) {
    out->assign(only->begin(), only->end());
    return;
  }
  UnionScratch& scratch = LocalUnionScratch();
  if (inputs <= kUnionMergeMaxLists && total <= kUnionMergeMaxValues) {
    // Cascade of two-pointer merges. The accumulator starts as the first
    // list itself (no copy), alternates between two scratch buffers, and
    // the last merge writes straight into `out`.
    const uint32_t* acc = nullptr;
    size_t acc_size = 0;
    size_t merges = 0;
    for (const PostingList* list : lists) {
      if (list->empty()) continue;
      if (acc == nullptr) {
        acc = list->data();
        acc_size = list->size();
        continue;
      }
      if (stats != nullptr) {
        ++stats->array_array;
        ++stats->scalar_fallback;
      }
      if (++merges + 1 == inputs) {
        out->resize(acc_size + list->size());
        out->resize(MergeUnion(acc, acc_size, list->data(), list->size(),
                               out->data()));
        break;
      }
      PostingList& dst =
          acc == scratch.acc.data() ? scratch.tmp : scratch.acc;
      dst.resize(acc_size + list->size());
      dst.resize(
          MergeUnion(acc, acc_size, list->data(), list->size(), dst.data()));
      acc = dst.data();
      acc_size = dst.size();
    }
    return;
  }
  // Many or large inputs: scatter into a bitmap over the word range the
  // inputs span, then extract in order. Values are row or token ids, dense
  // from 0, so the bitmap holds at most one bit per row or token.
  const size_t lo_word = lo >> 6;
  std::vector<uint64_t>& bits = scratch.bits;
  bits.assign((hi >> 6) - lo_word + 1, 0);
  for (const PostingList* list : lists) {
    if (list->empty()) continue;
    if (stats != nullptr) ++stats->array_bitmap;
    for (const uint32_t v : *list) {
      bits[(v >> 6) - lo_word] |= uint64_t{1} << (v & 63);
    }
  }
  out->reserve(total);
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word != 0) {
      out->push_back(static_cast<T>(
          (lo_word + w) * 64 + static_cast<size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

template void UnionPostings<uint32_t>(const std::vector<const PostingList*>&,
                                      std::vector<uint32_t>*, KernelStats*);
template void UnionPostings<int64_t>(const std::vector<const PostingList*>&,
                                     std::vector<int64_t>*, KernelStats*);

}  // namespace mweaver::text
