// Per-(relation, attribute) inverted index: token -> posting list of row
// ids (a sorted u32 vector, text/posting_list.h). Stands in for the MySQL
// full-text indexes the paper's implementation relied on ("which has a
// pre-computed inverted-index", Appendix A.1).
//
// An index holds postings keyed by token id and nothing else: which string
// a token id stands for, and which tokens a sample token can match (the
// n-gram and deletion-neighborhood candidate tables), is the job of the
// text::Vocabulary every index of one engine is filed into. Build() makes
// every index, the engine's, the tests' and the lookup bench's alike.
// AddRow and RemoveRow keep an index equal to what Build() would make over
// its live rows: a token is held exactly while some live row holds it.
//
// ScanCandidateRows preserves the original O(|dict|)-per-token linear scan
// as the reference implementation: property tests assert the vocabulary
// path returns exactly its candidate set, the lookup bench measures the
// speedup against it, and it is what a probe degrades to when the
// "text.lookup.fast_path" failpoint fires.
#ifndef MWEAVER_TEXT_INVERTED_INDEX_H_
#define MWEAVER_TEXT_INVERTED_INDEX_H_

#include <span>
#include <string_view>
#include <vector>

#include "storage/relation.h"
#include "text/posting_list.h"

namespace mweaver::text {

class Vocabulary;

/// \brief Inverted index over the string values of one attribute column.
class InvertedIndex {
 public:
  using TokenId = uint32_t;

  /// \brief One string attribute to index.
  struct Column {
    const storage::Relation* relation = nullptr;
    storage::AttributeId attribute = storage::kInvalidAttribute;
  };

  InvertedIndex() = default;  // over no rows

  /// \brief Indexes every non-null, non-deleted value of each column and
  /// files column i's tokens under slot i of `vocab`. The columns tokenize
  /// in parallel on the shared pool (a lone column on the calling thread),
  /// each into a dictionary local to its build; the filing that assigns
  /// the ids is serial, slot by slot and each slot's tokens in order of
  /// first appearance, so the ids do not depend on the thread count.
  static std::vector<InvertedIndex> Build(std::span<const Column> columns,
                                          Vocabulary* vocab);

  /// \brief Incrementally indexes a freshly appended non-null row whose
  /// value holds the distinct tokens `ids`. `row` must exceed every row id
  /// already indexed (appends assign physically increasing ids, so this
  /// holds by construction).
  void AddRow(storage::RowId row, std::span<const TokenId> ids);

  /// \brief Removes a tombstoned row, whose value holds the distinct tokens
  /// `ids`, from every posting list it appears in, and drops each token
  /// whose postings empty out: the index then holds exactly what a fresh
  /// build over its live rows would.
  void RemoveRow(storage::RowId row, std::span<const TokenId> ids);

  /// \brief Sorted, duplicate-free row ids whose value could noisily contain
  /// `sample` under the policy of `vocab`, the vocabulary this index was
  /// filed into, found by an O(|dict|)-per-token linear scan of this
  /// index's token strings that reads no candidate table: the reference the
  /// vocabulary path must equal (see the file comment).
  std::vector<storage::RowId> ScanCandidateRows(const Vocabulary& vocab,
                                                std::string_view sample) const;

  /// \brief Appends the postings of each token in `ids` (sorted) that this
  /// index holds, in id order.
  void AppendPostings(std::span<const TokenId> ids,
                      std::vector<const PostingList*>* out) const;
  /// \brief Every indexed row, sorted: a punctuation-only sample's
  /// candidates.
  const PostingList& all_rows() const { return all_rows_; }

  size_t num_tokens() const { return ids_.size(); }
  size_t num_indexed_rows() const { return all_rows_.size(); }
  /// \brief Approximate heap footprint of the token ids and the row
  /// postings.
  size_t index_bytes() const;

 private:
  // Sorted token ids; postings_[k] holds the rows of token ids_[k], sorted
  // by construction (rows arrive in increasing order).
  std::vector<TokenId> ids_;
  std::vector<PostingList> postings_;
  // Every indexed row, punctuation-only values included: a token-less
  // sample's conservative candidate set.
  PostingList all_rows_;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_INVERTED_INDEX_H_
