// Per-(relation, attribute) inverted index: token -> posting list of row
// ids (a sorted u32 vector, text/posting_list.h). Stands in for the MySQL
// full-text indexes the paper's implementation relied on ("which has a
// pre-computed inverted-index", Appendix A.1).
//
// An index holds its postings and its own string dictionary, nothing
// else. Resolving a sample token to the dictionary tokens it can match
// (the n-gram and deletion-neighborhood candidate tables) is the job of
// the text::Vocabulary shared by every index of one engine (a standalone
// index is the one-attribute case: Vocabulary(index)); the vocabulary
// then reads this index's postings by token (PostingsOf).
//
// ScanCandidateRows preserves the original O(|dict|)-per-token linear scan
// as the reference implementation: property tests assert the vocabulary
// path returns exactly its candidate set, the lookup bench measures the
// speedup against it, and it is what a probe degrades to when the
// "text.lookup.fast_path" failpoint fires.
#ifndef MWEAVER_TEXT_INVERTED_INDEX_H_
#define MWEAVER_TEXT_INVERTED_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "text/match.h"
#include "text/posting_list.h"

namespace mweaver::text {

/// \brief Inverted index over the display strings of one attribute column.
class InvertedIndex {
 public:
  using TokenId = uint32_t;

  /// \brief Indexes every non-null, non-deleted value of `attribute` in
  /// `relation`; `policy` is the one ScanCandidateRows answers for. With
  /// `shard_count` > 1 the index covers only the rows the shard hash
  /// (common::ShardOfRow) assigns to `shard_index` — the unit of the
  /// catalog's intra-tenant sharding; posting row ids stay physical
  /// (relation-global), so per-shard results union losslessly.
  InvertedIndex(const storage::Relation& relation,
                storage::AttributeId attribute, const MatchPolicy& policy,
                uint32_t shard_index = 0, uint32_t shard_count = 1);

  /// \brief Incrementally indexes the value `v` of a freshly appended row.
  /// `row` must exceed every row id already indexed (appends assign
  /// physically increasing ids, so this holds by construction). New tokens
  /// are appended to the dictionary: tokens()[num_tokens() before the
  /// call ..] are the ones this row brought.
  void AddRow(storage::RowId row, storage::ValueView v);

  /// \brief Removes a tombstoned row's value from every posting list it
  /// appears in. Dictionary entries whose postings empty out are retained
  /// (they resolve to empty row sets, which is indistinguishable from a
  /// missing token to every probe); Compact() rebuilds without them.
  void RemoveRow(storage::RowId row, storage::ValueView v);

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
  /// `sample` under the index's policy, found by an O(|dict|)-per-token
  /// linear scan that reads no candidate table: the reference the
  /// vocabulary path (Vocabulary::CandidateRows) must equal, the lookup
  /// benchmark's baseline and the "text.lookup.fast_path" failpoint's
  /// degraded probe.
  std::vector<storage::RowId> ScanCandidateRows(std::string_view sample) const;

  /// \brief Postings of an exactly-matching dictionary token, or nullptr.
  const PostingList* PostingsOf(const std::string& token) const {
    auto it = token_ids_.find(token);
    return it == token_ids_.end() ? nullptr : &postings_[it->second];
  }
  /// \brief The dictionary, in token-id order (ids are never reused).
  const std::vector<std::string>& tokens() const { return tokens_; }
  /// \brief Every indexed row, sorted: a punctuation-only sample's
  /// candidates.
  const std::vector<storage::RowId>& all_rows() const { return all_rows_; }

  const MatchPolicy& policy() const { return policy_; }
  size_t num_tokens() const { return tokens_.size(); }
  size_t num_indexed_rows() const { return num_indexed_rows_; }
  /// \brief Approximate heap footprint of the dictionary and the row
  /// postings.
  size_t index_bytes() const;

 private:
  // Indexes `v` under `row`; the constructor and AddRow share it.
  void IndexRow(storage::RowId row, storage::ValueView v);

  // Token dictionary; postings_[id] aligns with tokens_[id], sorted by
  // construction (rows visited in increasing order).
  std::vector<std::string> tokens_;
  std::vector<PostingList> postings_;
  std::unordered_map<std::string, TokenId> token_ids_;

  MatchPolicy policy_;

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
