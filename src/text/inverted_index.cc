#include "text/inverted_index.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace mweaver::text {

InvertedIndex::InvertedIndex(const storage::Relation& relation,
                             storage::AttributeId attribute,
                             const MatchPolicy& policy)
    : policy_(policy) {
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    const storage::RowId row = static_cast<storage::RowId>(r);
    if (relation.is_deleted(row)) continue;
    IndexRow(row, relation.at(row, attribute));
  }
}

void InvertedIndex::AddRow(storage::RowId row, storage::ValueView v) {
  MW_DCHECK(all_rows_.empty() || all_rows_.back() < row)
      << "incremental rows must arrive in increasing id order";
  IndexRow(row, v);
}

void InvertedIndex::IndexRow(storage::RowId row, storage::ValueView v) {
  if (v.is_null()) return;
  all_rows_.push_back(row);
  ++num_indexed_rows_;
  std::vector<std::string> row_tokens = Tokenize(v.ToDisplayString());
  std::sort(row_tokens.begin(), row_tokens.end());
  row_tokens.erase(std::unique(row_tokens.begin(), row_tokens.end()),
                   row_tokens.end());
  for (std::string& t : row_tokens) {
    auto [it, inserted] =
        token_ids_.emplace(std::move(t), static_cast<TokenId>(tokens_.size()));
    if (inserted) {
      tokens_.push_back(it->first);
      postings_.emplace_back();
    }
    postings_[it->second].push_back(static_cast<uint32_t>(row));
  }
}

void InvertedIndex::RemoveRow(storage::RowId row, storage::ValueView v) {
  if (v.is_null()) return;
  auto it = std::lower_bound(all_rows_.begin(), all_rows_.end(), row);
  MW_DCHECK(it != all_rows_.end() && *it == row)
      << "removing a row the index never saw";
  all_rows_.erase(it);
  --num_indexed_rows_;
  ++num_removed_rows_;
  std::vector<std::string> row_tokens = Tokenize(v.ToDisplayString());
  std::sort(row_tokens.begin(), row_tokens.end());
  row_tokens.erase(std::unique(row_tokens.begin(), row_tokens.end()),
                   row_tokens.end());
  for (const std::string& t : row_tokens) {
    auto token = token_ids_.find(t);
    MW_DCHECK(token != token_ids_.end());
    if (token == token_ids_.end()) continue;
    PostingList& list = postings_[token->second];
    auto pos = std::lower_bound(list.begin(), list.end(),
                                static_cast<uint32_t>(row));
    if (pos != list.end() && *pos == row) list.erase(pos);
    // An emptied posting list stays in the dictionary: every probe treats
    // an empty row set and an absent token identically. Compact()
    // reclaims.
  }
}

std::vector<storage::RowId> InvertedIndex::ScanCandidateRows(
    std::string_view sample) const {
  const std::vector<std::string> sample_tokens = Tokenize(sample);
  if (sample_tokens.empty()) return all_rows_;
  bool first = true;
  std::vector<storage::RowId> acc;
  for (const std::string& t : sample_tokens) {
    // Gather per-token rows the pre-acceleration way: a full dictionary
    // scan per token, a fresh vector per union/intersection — this path
    // must not benefit from (or depend on) the merge kernels it is the
    // reference for.
    std::vector<const PostingList*> lists;
    switch (policy_.mode) {
      case MatchMode::kExact:
      case MatchMode::kEqualsIgnoreCase:
      case MatchMode::kTokenSubset:
        if (const PostingList* p = PostingsOf(t)) {
          lists.push_back(p);
        }
        break;
      case MatchMode::kSubstring:
        // If the sample is a substring of the value, each maximal
        // alphanumeric run of the sample is contained inside some token of
        // the value (the first/last runs possibly as a proper infix).
        for (TokenId id = 0; id < tokens_.size(); ++id) {
          if (tokens_[id].find(t) != std::string::npos) {
            lists.push_back(&postings_[id]);
          }
        }
        break;
      case MatchMode::kFuzzyTokenSubset:
        for (TokenId id = 0; id < tokens_.size(); ++id) {
          if (BoundedEditDistance(tokens_[id], t,
                                  policy_.max_edit_distance) <=
              policy_.max_edit_distance) {
            lists.push_back(&postings_[id]);
          }
        }
        break;
    }
    std::vector<storage::RowId> rows_for_token;
    for (const PostingList* list : lists) {
      rows_for_token.insert(rows_for_token.end(), list->begin(), list->end());
    }
    std::sort(rows_for_token.begin(), rows_for_token.end());
    rows_for_token.erase(
        std::unique(rows_for_token.begin(), rows_for_token.end()),
        rows_for_token.end());
    if (first) {
      acc = std::move(rows_for_token);
      first = false;
    } else {
      std::vector<storage::RowId> merged;
      std::set_intersection(acc.begin(), acc.end(), rows_for_token.begin(),
                            rows_for_token.end(), std::back_inserter(merged));
      acc = std::move(merged);
    }
    if (acc.empty()) break;
  }
  return acc;
}

size_t InvertedIndex::index_bytes() const {
  size_t bytes = all_rows_.capacity() * sizeof(storage::RowId);
  for (size_t i = 0; i < tokens_.size(); ++i) {
    bytes += tokens_[i].capacity() + sizeof(std::string) +
             postings_[i].capacity() * sizeof(uint32_t) + sizeof(PostingList);
  }
  return bytes;
}

}  // namespace mweaver::text
