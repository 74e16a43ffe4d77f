// Block-encoded posting lists (roaring-style) and the merge kernels that
// operate on them. A list partitions its sorted u32 values into containers
// of 64K consecutive values keyed by `value >> 16`; each container is
// either a sorted u16 array (sparse, <= kArrayMaxCardinality values) or a
// 1024-word bitmap (dense), converting between the two as its density
// crosses the threshold. Merges then work container-against-container — a
// branchless two-pointer merge (galloping when the sizes are skewed) for
// array x array, a branchless bit probe for array x bitmap, and u64
// word-at-a-time AND/OR for bitmap x bitmap — instead of element-against-
// element over std::vector<RowId>.
//
// The kernels are plain C++ and the same in every build (DESIGN.md §13
// records why there is no SIMD tier). The pre-block flat-vector merge
// kernels live on, frozen, as a test oracle (tests/postings.h).
#ifndef MWEAVER_TEXT_POSTING_BLOCK_H_
#define MWEAVER_TEXT_POSTING_BLOCK_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace mweaver::text {

/// \brief Per-kernel hit counters: which container-pair shape each block
/// merge dispatched to. `scalar_fallback` counts the array x array merges
/// that are not a balanced two-pointer intersection: intersections whose
/// sizes are skewed more than 16x (they gallop) and every array x array
/// union merge (the name is historical: these are the merges a since
/// removed vector kernel did not serve). Plain and copyable; flows into
/// text::ProbeStats and out through bench_text_lookup.
struct KernelStats {
  uint64_t array_array = 0;
  uint64_t array_bitmap = 0;
  uint64_t bitmap_bitmap = 0;
  uint64_t scalar_fallback = 0;

  void Add(const KernelStats& other) {
    array_array += other.array_array;
    array_bitmap += other.array_bitmap;
    bitmap_bitmap += other.bitmap_bitmap;
    scalar_fallback += other.scalar_fallback;
  }
};

/// \brief A sorted, duplicate-free set of u32 values stored as roaring-style
/// containers. Built by appending strictly increasing values; reusable via
/// Reset() (container buffers are pooled, so a warm probe's scratch lists
/// allocate nothing).
class BlockPostingList {
 public:
  /// Values per container (the low 16 bits address within a container).
  static constexpr size_t kContainerSpan = size_t{1} << 16;
  /// Above this cardinality a container converts from sorted-array to
  /// bitmap; at or below it, merge results convert back down. 4096 u16
  /// values = 8 KiB, the same footprint as the bitmap, which is the
  /// classic roaring break-even point.
  static constexpr size_t kArrayMaxCardinality = 4096;
  static constexpr size_t kBitmapWords = kContainerSpan / 64;

  struct Container {
    uint16_t key = 0;  // value >> 16
    bool is_bitmap = false;
    uint32_t cardinality = 0;
    std::vector<uint16_t> array;   // sorted, duplicate-free; iff !is_bitmap
    std::vector<uint64_t> bitmap;  // kBitmapWords words; iff is_bitmap
  };

  /// \brief Empties the list but keeps every container's buffers for reuse.
  void Reset() {
    num_active_ = 0;
    size_ = 0;
  }

  /// \brief Appends `value`, which must be strictly greater than every value
  /// already present.
  void Append(uint32_t value);

  /// \brief Removes `value` if present; returns whether it was. A bitmap
  /// container whose cardinality drops back to kArrayMaxCardinality
  /// re-converts to a sorted array (the same break-even as the upward
  /// conversion), and a container emptied entirely is deactivated with its
  /// buffers returned to the pool. After removing the maximum, Append
  /// accepts any value greater than the new maximum.
  bool Remove(uint32_t value);

  /// \brief Builds from a sorted, duplicate-free range.
  static BlockPostingList FromSorted(const uint32_t* values, size_t n) {
    BlockPostingList list;
    for (size_t i = 0; i < n; ++i) list.Append(values[i]);
    return list;
  }
  static BlockPostingList FromSorted(const std::vector<uint32_t>& values) {
    return FromSorted(values.data(), values.size());
  }

  /// \brief Replaces this list's contents with a copy of `other`, reusing
  /// buffers.
  void CopyFrom(const BlockPostingList& other);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_containers() const { return num_active_; }
  const Container& container(size_t i) const {
    MW_DCHECK(i < num_active_);
    return containers_[i];
  }

  /// \brief Largest value in the list; requires !empty().
  uint32_t back() const {
    MW_DCHECK(size_ > 0);
    return last_value_;
  }

  /// \brief Membership test: binary search over container keys, then a
  /// binary search (array) or single bit probe (bitmap).
  bool Contains(uint32_t value) const;

  /// \brief Appends every value in ascending order, cast to T.
  template <typename T>
  void AppendTo(std::vector<T>* out) const {
    out->reserve(out->size() + size_);
    for (size_t c = 0; c < num_active_; ++c) {
      const Container& ct = containers_[c];
      const uint32_t base = static_cast<uint32_t>(ct.key) << 16;
      if (ct.is_bitmap) {
        for (size_t w = 0; w < kBitmapWords; ++w) {
          uint64_t word = ct.bitmap[w];
          while (word != 0) {
            const int b = std::countr_zero(word);
            out->push_back(static_cast<T>(
                base + static_cast<uint32_t>(w * 64 + static_cast<size_t>(b))));
            word &= word - 1;
          }
        }
      } else {
        // Bulk decode: resize once and write through a raw pointer — the
        // widening base+low loop auto-vectorizes, where per-element
        // push_back re-checks capacity on every value. Hot dictionaries
        // decode hundreds of rows per probe through this path.
        const size_t old = out->size();
        out->resize(old + ct.array.size());
        T* dst = out->data() + old;
        const uint16_t* src = ct.array.data();
        const size_t n = ct.array.size();
        for (size_t i = 0; i < n; ++i) {
          dst[i] = static_cast<T>(base + src[i]);
        }
      }
    }
  }

  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    out.reserve(size_);
    AppendTo(&out);
    return out;
  }

  /// \brief Approximate heap footprint (container buffers, pooled ones
  /// included).
  size_t bytes() const;

 private:
  friend void IntersectBlocks(const BlockPostingList&, const BlockPostingList&,
                              BlockPostingList*, KernelStats*);
  friend void UnionBlocks(const std::vector<const BlockPostingList*>&,
                          BlockPostingList*, KernelStats*);

  // Activates (reusing a pooled slot when available) a container for `key`,
  // which must exceed every active key.
  Container& AddContainer(uint16_t key);
  static void ToBitmap(Container* ct);
  static void ToArrayIfSparse(Container* ct);

  std::vector<Container> containers_;  // first num_active_ are live
  size_t num_active_ = 0;
  size_t size_ = 0;
  uint32_t last_value_ = 0;
};

/// \brief Above this many input lists, a per-key block union accumulates
/// into a bitmap scratch container instead of cascading two-pointer array
/// merges. Measured on this format by bench/measure_union_crossover.cpp
/// (sparse array containers, 64-value average cardinality, the shape the
/// fuzzy/substring probes produce): over the full 64K container span the
/// merge cascade wins decisively for few lists (19.2x at k=2, 3.25x at
/// k=4, 1.59x at k=6) but its cost grows ~quadratically with k (the
/// accumulator is re-walked per merge), while the bitmap's range-bounded
/// scatter+extract is near-constant (~7-8 us here); the curves tie at
/// k = 8 and the bitmap wins from k = 10. Lower than the flat-vector
/// kernels' heap-merge crossover of 16 because a heap merge is O(total
/// log k), not quadratic. On narrow containers (MWEAVER_BENCH_VALUE_RANGE
/// = 2048, the small-dictionary shape) the range bounding shrinks the
/// bitmap epilogue to ~1 us and it wins from k = 4 already — those dense
/// cases are routed anyway by the total-cardinality gate (see
/// UnionBlocks): whenever the result must be a bitmap container, or the
/// contributors' combined cardinality exceeds an array's, accumulating in
/// a bitmap is strictly cheaper.
inline constexpr size_t kUnionArrayMergeMaxLists = 8;

/// \brief Intersection of `a` and `b` into `*out` (Reset first; must not
/// alias the inputs). Walks the two container directories in key order and
/// dispatches per pair: two-pointer merge or gallop for array x array,
/// branchless bit probe for array x bitmap, u64 AND for bitmap x bitmap.
/// `stats`, when given, tallies which kernels ran.
void IntersectBlocks(const BlockPostingList& a, const BlockPostingList& b,
                     BlockPostingList* out, KernelStats* stats = nullptr);

/// \brief Sorted, duplicate-free union of `lists` into `*out` (Reset
/// first; must not alias any input). Containers sharing a key merge via
/// k-way array merge when few and sparse, bitmap accumulation otherwise
/// (see kUnionArrayMergeMaxLists).
void UnionBlocks(const std::vector<const BlockPostingList*>& lists,
                 BlockPostingList* out, KernelStats* stats = nullptr);

/// \brief Sorted, duplicate-free union of `lists` decoded straight into a
/// flat value vector (cleared first). Same merge strategy as UnionBlocks,
/// but skips materializing an output posting list: no container
/// activation, no bitmap-to-array conversion, one decode pass instead of
/// two. This is the shape every terminal union takes — candidate-token
/// unions (NGramIndex / DeletionIndex) and the single-token probe's row
/// union all immediately flatten their result. Templated on the output
/// value type so callers decode into their natural width (u32 token ids,
/// i64 row ids) with no widening re-copy; instantiated in the .cc for
/// uint32_t and int64_t only.
template <typename T>
void UnionBlocksTo(const std::vector<const BlockPostingList*>& lists,
                   std::vector<T>* out, KernelStats* stats = nullptr);

extern template void UnionBlocksTo<uint32_t>(
    const std::vector<const BlockPostingList*>&, std::vector<uint32_t>*,
    KernelStats*);
extern template void UnionBlocksTo<int64_t>(
    const std::vector<const BlockPostingList*>&, std::vector<int64_t>*,
    KernelStats*);

namespace internal {

// Container-level primitives, exposed for the unit/property tests. `out`
// must have room for min(na, nb) (intersections) or na + nb (unions)
// values and must not alias the inputs. All return the number of values
// written.

// Sorted u16 set intersection: branchless two-pointer merge, galloping
// through the larger array when the sizes are skewed by more than 16x.
// `*gallops`, when given, is incremented if the galloping path ran.
size_t IntersectU16(const uint16_t* a, size_t na, const uint16_t* b,
                    size_t nb, uint16_t* out, uint64_t* gallops);

// Sorted u16 set union (two-pointer merge); wide unions go through bitmap
// accumulation instead.
size_t UnionU16Scalar(const uint16_t* a, size_t na, const uint16_t* b,
                      size_t nb, uint16_t* out);

// out[i] = a[i] & b[i] over kBitmapWords words; returns the cardinality.
uint32_t AndBitmaps(const uint64_t* a, const uint64_t* b, uint64_t* out);

// out[i] |= src[i] over kBitmapWords words (no cardinality — union
// accumulation popcounts once at the end).
void OrBitmapInto(const uint64_t* src, uint64_t* out);

// Branchless membership filter: keeps the a[i] whose bit is set in bm.
size_t IntersectArrayBitmap(const uint16_t* a, size_t na, const uint64_t* bm,
                            uint16_t* out);

}  // namespace internal

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_POSTING_BLOCK_H_
