// Per-(relation, attribute) inverted index: token -> posting list of row
// ids (a sorted u32 vector, text/posting_list.h). Stands in for the MySQL full-text indexes the paper's
// implementation relied on ("which has a pre-computed inverted-index",
// Appendix A.1).
//
// An index is built for one MatchPolicy (the paper's ⊙ is one configured
// error model) and resolves that policy's probes sublinearly in the
// dictionary size. It holds at most one candidate table, the one its
// policy probes:
//  * kSubstring: an NGramIndex — a probe intersects the query's trigram
//    posting lists and verifies only the residue;
//  * kFuzzyTokenSubset with 1 <= d <= DeletionIndex::kMaxEdit: a
//    DeletionIndex (SymSpell-style) — a probe looks up the query's
//    deletion neighborhood and edit-distances only the candidates;
//  * exact, ignore-case, token-subset and fuzzy d = 0: no table — a probe
//    hashes straight to the token's postings;
//  * fuzzy beyond kMaxEdit: no table — a counted full dictionary scan.
// ScanCandidateRows preserves the original O(|dict|)-per-token linear scan
// as the reference implementation: property tests assert the accelerated
// path returns exactly its candidate set, the lookup bench measures the
// speedup against it, and it is what a probe degrades to when the
// "text.lookup.fast_path" failpoint fires.
#ifndef MWEAVER_TEXT_INVERTED_INDEX_H_
#define MWEAVER_TEXT_INVERTED_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "text/deletion_index.h"
#include "text/lookup_stats.h"
#include "text/match.h"
#include "text/ngram_index.h"
#include "text/posting_list.h"

namespace mweaver::text {

/// \brief Inverted index over the display strings of one attribute column.
class InvertedIndex {
 public:
  using TokenId = uint32_t;

  /// \brief Indexes every non-null, non-deleted value of `attribute` in
  /// `relation` for probes under `policy`. With `shard_count` > 1 the index
  /// covers only the rows the shard hash (common::ShardOfRow) assigns to
  /// `shard_index` — the unit of the catalog's intra-tenant sharding;
  /// posting row ids stay physical (relation-global), so per-shard results
  /// union losslessly.
  InvertedIndex(const storage::Relation& relation,
                storage::AttributeId attribute, const MatchPolicy& policy,
                uint32_t shard_index = 0, uint32_t shard_count = 1);

  /// \brief Incrementally indexes the value `v` of a freshly appended row.
  /// `row` must exceed every row id already indexed (appends assign
  /// physically increasing ids, so this holds by construction). New tokens
  /// extend the dictionary and the policy's candidate table in place.
  void AddRow(storage::RowId row, const storage::Value& v);

  /// \brief Removes a tombstoned row's value from every posting list it
  /// appears in. Dictionary entries whose postings empty out are retained
  /// (they resolve to empty row sets, which is indistinguishable from a
  /// missing token to every probe); Compact() rebuilds without them.
  void RemoveRow(storage::RowId row, const storage::Value& v);

  /// \brief Rows removed since construction (or the last Compact): the
  /// delta-compaction policy input — each removal leaves dictionary
  /// garbage that only a rebuild reclaims.
  size_t num_removed_rows() const { return num_removed_rows_; }

  /// \brief Rebuilds from scratch over the relation's live rows (of this
  /// index's shard, if sharded), dropping tokens whose postings emptied
  /// out. Equivalent to constructing fresh under the same policy.
  void Compact(const storage::Relation& relation,
               storage::AttributeId attribute) {
    *this = InvertedIndex(relation, attribute, policy_, shard_index_,
                          shard_count_);
  }

  /// \brief Sorted, duplicate-free row ids whose value could noisily contain
  /// `sample` under the index's policy. Guaranteed to be a superset of the
  /// true match set; callers verify candidates against the raw values.
  /// Identical to ScanCandidateRows' result, computed sublinearly. `stats`,
  /// when given, accumulates candidate/fallback counters for this probe.
  std::vector<storage::RowId> CandidateRows(const std::string& sample,
                                            ProbeStats* stats = nullptr) const;

  /// \brief Linear-scan reference implementation of CandidateRows (the
  /// pre-acceleration code path): O(|dict|) per query token, reading no
  /// candidate table. Kept for the property tests, the lookup benchmark and
  /// the "text.lookup.fast_path" failpoint's degraded probe.
  std::vector<storage::RowId> ScanCandidateRows(
      const std::string& sample) const;

  const MatchPolicy& policy() const { return policy_; }
  size_t num_tokens() const { return tokens_.size(); }
  size_t num_indexed_rows() const { return num_indexed_rows_; }
  /// \brief Approximate heap footprint of all index structures (the
  /// dictionary, row postings and the policy's candidate table).
  size_t index_bytes() const;

 private:
  // Indexes `v` under `row`; the constructor and AddRow share it.
  void IndexRow(storage::RowId row, const storage::Value& v);
  // Postings of an exactly-matching token, or nullptr.
  const PostingList* PostingsOf(const std::string& token) const;

  // Candidate token ids (sorted, verified) for one query token under
  // policy_. `kernels` tallies the merge kernels the sub-index lookups
  // ran.
  void SubstringTokenIds(const std::string& token, std::vector<TokenId>* out,
                         ProbeStats* stats, KernelStats* kernels) const;
  void FuzzyTokenIds(const std::string& token, std::vector<TokenId>* out,
                     ProbeStats* stats, KernelStats* kernels) const;

  // Token dictionary; postings_[id] aligns with tokens_[id], sorted by
  // construction (rows visited in increasing order).
  std::vector<std::string> tokens_;
  std::vector<PostingList> postings_;
  std::unordered_map<std::string, TokenId> token_ids_;

  MatchPolicy policy_;
  // The candidate table policy_ probes; the other one stays empty (see the
  // file comment). Both are append-only: RemoveRow leaves them untouched.
  NGramIndex grams_;         // kSubstring
  DeletionIndex deletions_;  // DeletionIndex::Supports(policy_)

  // Rows whose value tokenized to nothing (e.g. punctuation-only); substring
  // candidates must include them conservatively only when the sample itself
  // has no tokens, in which case we fall back to all indexed rows.
  std::vector<storage::RowId> all_rows_;
  size_t num_indexed_rows_ = 0;
  size_t num_removed_rows_ = 0;
  // Shard scope of this index (0 of 1 = the whole relation); Compact()
  // must rebuild the same slice it was constructed over.
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_INVERTED_INDEX_H_
