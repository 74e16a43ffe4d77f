// SymSpell-style deletion-neighborhood index for sublinear fuzzy token
// lookup (kFuzzyTokenSubset): map every dictionary token's deletion
// variants (up to kMaxEdit character deletions) to the token. A query
// within edit distance d of a dictionary token shares at least one
// deletion variant with it, so a probe looks up only the query's own
// deletion variants and verifies the small candidate set with the bounded
// edit-distance routine — instead of edit-distancing the whole dictionary.
//
// Chosen over a BK-tree (see DESIGN.md): lookups are pure hash probes with
// edit distance computed only on final candidates, whereas a BK-tree pays
// an edit-distance evaluation at every visited node and degrades badly at
// d = 2 on short tokens. The table's memory (~O(len^2) variants per token
// at d = 2) is paid only by a vocabulary built for a policy that probes it
// (Supports), once per distinct token of the tenant.
//
// Variants are stored as 64-bit FNV-1a hashes, not strings: a hash
// collision only widens the candidate set, never loses a match, so the
// verification pass preserves exactness.
#ifndef MWEAVER_TEXT_DELETION_INDEX_H_
#define MWEAVER_TEXT_DELETION_INDEX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "text/key_table.h"
#include "text/match.h"
#include "text/posting_list.h"

namespace mweaver::text {

/// \brief Deletion-neighborhood index over a growing token dictionary.
class DeletionIndex {
 public:
  using TokenId = uint32_t;

  /// Largest per-token edit distance the index can answer; probes beyond it
  /// must fall back to a dictionary scan.
  static constexpr size_t kMaxEdit = 2;
  /// Tokens longer than this are kept in a side list (their deletion
  /// neighborhoods are quadratically large) and verified on every probe.
  static constexpr size_t kMaxIndexedLength = 32;

  /// \brief Whether `policy` probes a deletion index: kFuzzyTokenSubset
  /// with 1 <= d <= kMaxEdit. At d = 0 a fuzzy probe is a verbatim token
  /// lookup, and beyond kMaxEdit it is a counted dictionary scan; neither
  /// reads the table, so a Vocabulary builds one only when this holds.
  static bool Supports(const MatchPolicy& policy) {
    return policy.mode == MatchMode::kFuzzyTokenSubset &&
           policy.max_edit_distance >= 1 &&
           policy.max_edit_distance <= kMaxEdit;
  }

  /// \brief Indexes one dictionary token under every variant with up to
  /// kMaxEdit deletions, whatever the probing policy's bound (a d = 1
  /// probe's candidate set stays the one the scan reference is checked
  /// against). `id` must exceed every id already indexed.
  void AddToken(TokenId id, std::string_view token);

  /// \brief Token ids possibly within edit distance `max_edit` of `token`
  /// (1 <= max_edit <= kMaxEdit), sorted and duplicate-free, written to
  /// `*out` (cleared first). A superset: the caller verifies each candidate
  /// with BoundedEditDistance. `*examined` is incremented by the number of
  /// candidates produced; `kernels`, when given, tallies the merge kernels
  /// the variant-list union ran.
  void Candidates(std::string_view token, size_t max_edit,
                  std::vector<TokenId>* out, uint64_t* examined,
                  KernelStats* kernels = nullptr) const;

  /// \brief Approximate heap footprint of the variant table.
  size_t bytes() const {
    return variants_.bytes() + long_tokens_.capacity() * sizeof(uint32_t);
  }

 private:
  // Collects the hashes of every variant of `token` reachable by deleting
  // up to `budget` characters (the token itself included), deduplicated.
  static void CollectVariantHashes(std::string_view token, size_t budget,
                                   std::vector<uint64_t>* out);

  FlatKeyTable<uint64_t> variants_;  // variant hash -> token ids
  PostingList long_tokens_;          // length > kMaxIndexedLength
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_DELETION_INDEX_H_
