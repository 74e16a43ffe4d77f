// Posting lists and the two merge kernels that operate on them. A posting
// list is a sorted, duplicate-free std::vector<uint32_t>: row ids in an
// InvertedIndex, token ids in the candidate tables (NGramIndex,
// DeletionIndex). Intersection is a branchless two-pointer merge that
// gallops when one list is much shorter; union is a cascade of two-pointer
// merges when the inputs are few and small, and a range-bounded bitmap
// scatter otherwise.
//
// The kernels are plain C++ and the same in every build (DESIGN.md §13
// records why there is no SIMD tier and no block codec).
#ifndef MWEAVER_TEXT_POSTING_LIST_H_
#define MWEAVER_TEXT_POSTING_LIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mweaver::text {

/// \brief A sorted, duplicate-free list of u32 values.
using PostingList = std::vector<uint32_t>;

/// \brief Per-kernel hit counters; flow into text::ProbeStats and out
/// through bench_text_lookup.
///  * `array_array`: two-pointer merges — one per intersection of two
///    non-empty lists and one per pairwise merge of a union cascade.
///  * `array_bitmap`: lists scattered into a union's bitmap, one per list.
///  * `scalar_fallback`: galloping intersections, plus one per union
///    cascade merge (the name is historical: these are the merges a since
///    removed vector kernel did not serve).
struct KernelStats {
  uint64_t array_array = 0;
  uint64_t array_bitmap = 0;
  uint64_t scalar_fallback = 0;
};

/// \brief A union of at most this many non-empty lists, holding at most
/// kUnionMergeMaxValues values in total, runs as a cascade of two-pointer
/// merges; anything larger scatters into a bitmap. Both thresholds are the
/// ones the removed block codec used per 64K container (DESIGN.md §13), so
/// the dispatch counts stay comparable with the checked-in baseline.
inline constexpr size_t kUnionMergeMaxLists = 8;
inline constexpr size_t kUnionMergeMaxValues = 4096;

/// \brief Sorted intersection of `a` and `b` into `*out` (overwritten; must
/// not alias the inputs): a branchless two-pointer merge, galloping through
/// the longer list when the sizes differ by more than 16x. Reuses `*out`'s
/// capacity, so a warm caller-owned buffer allocates nothing.
void IntersectPostings(const PostingList& a, const PostingList& b,
                       PostingList* out, KernelStats* stats = nullptr);

/// \brief Sorted, duplicate-free union of `lists` into `*out` (overwritten;
/// must not alias any input), cast to T. Empty inputs are skipped and a
/// single non-empty list is copied; see kUnionMergeMaxLists for the two
/// strategies. Instantiated for uint32_t (token ids and row-id scratch)
/// and int64_t (returned row ids) only.
template <typename T>
void UnionPostings(const std::vector<const PostingList*>& lists,
                   std::vector<T>* out, KernelStats* stats = nullptr);

extern template void UnionPostings<uint32_t>(
    const std::vector<const PostingList*>&, std::vector<uint32_t>*,
    KernelStats*);
extern template void UnionPostings<int64_t>(
    const std::vector<const PostingList*>&, std::vector<int64_t>*,
    KernelStats*);

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_POSTING_LIST_H_
