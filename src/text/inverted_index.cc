#include "text/inverted_index.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "text/match.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace mweaver::text {

std::vector<InvertedIndex> InvertedIndex::Build(
    std::span<const Column> columns, Vocabulary* vocab) {
  // In parallel: each column's postings under a dictionary local to its
  // build, tokens numbered in order of first appearance.
  std::vector<InvertedIndex> indexes(columns.size());
  std::vector<std::deque<std::string>> tokens(columns.size());
  const size_t threads = ThreadPool::Shared().num_threads();
  ParallelFor(columns.size(), threads, [&](size_t i) {
    (void)MW_FAILPOINT_FIRE("text.index.build");  // chaos: kDelay only
    thread_local std::vector<std::string> cell;  // one cell's tokens
    std::unordered_map<std::string_view, TokenId> local;  // into tokens[i]
    InvertedIndex& index = indexes[i];
    const storage::Relation& rel = *columns[i].relation;
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      const auto row = static_cast<storage::RowId>(r);
      const storage::ValueView v = rel.at(row, columns[i].attribute);
      if (rel.is_deleted(row) || v.is_null()) continue;
      index.all_rows_.push_back(static_cast<uint32_t>(row));
      DistinctTokensInto(v.AsString(), &cell);
      for (const std::string& token : cell) {
        auto it = local.find(token);
        if (it == local.end()) {
          tokens[i].push_back(token);
          it = local.emplace(tokens[i].back(), local.size()).first;
          index.postings_.emplace_back();
        }
        index.postings_[it->second].push_back(static_cast<uint32_t>(row));
      }
    }
  });
  // Serially, slot by slot: the vocabulary assigns each local token its id,
  // and the postings are reordered by id.
  std::vector<std::pair<TokenId, TokenId>> order;  // (id, local id)
  for (size_t i = 0; i < columns.size(); ++i) {
    order.clear();
    for (const std::string& token : tokens[i]) {
      order.emplace_back(vocab->Add(token, static_cast<uint32_t>(i)),
                         order.size());
    }
    std::sort(order.begin(), order.end());
    InvertedIndex& index = indexes[i];
    std::vector<PostingList> local = std::exchange(index.postings_, {});
    for (const auto& [id, k] : order) {
      index.ids_.push_back(id);
      index.postings_.push_back(std::move(local[k]));
    }
  }
  return indexes;
}

void InvertedIndex::AddRow(storage::RowId row, std::span<const TokenId> ids) {
  const auto posted = static_cast<uint32_t>(row);
  MW_DCHECK(all_rows_.empty() || all_rows_.back() < posted)
      << "incremental rows must arrive in increasing id order";
  all_rows_.push_back(posted);
  for (const TokenId id : ids) {
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    const auto k = at - ids_.begin();
    if (at == ids_.end() || *at != id) {
      ids_.insert(at, id);
      postings_.emplace(postings_.begin() + k);
    }
    postings_[static_cast<size_t>(k)].push_back(posted);
  }
}

void InvertedIndex::RemoveRow(storage::RowId row,
                              std::span<const TokenId> ids) {
  const auto posted = static_cast<uint32_t>(row);
  auto it = std::lower_bound(all_rows_.begin(), all_rows_.end(), posted);
  MW_DCHECK(it != all_rows_.end() && *it == posted)
      << "removing a row the index never saw";
  all_rows_.erase(it);
  for (const TokenId id : ids) {
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (at == ids_.end() || *at != id) {
      MW_DCHECK(false) << "a live row's token is missing from its index";
      continue;
    }
    const auto k = at - ids_.begin();
    PostingList& list = postings_[static_cast<size_t>(k)];
    auto pos = std::lower_bound(list.begin(), list.end(), posted);
    if (pos != list.end() && *pos == posted) list.erase(pos);
    if (list.empty()) {
      ids_.erase(at);
      postings_.erase(postings_.begin() + k);
    }
  }
}

void InvertedIndex::AppendPostings(std::span<const TokenId> ids,
                                   std::vector<const PostingList*>* out) const {
  // Both id lists are sorted, so each search starts where the last ended.
  auto from = ids_.begin();
  for (const TokenId id : ids) {
    from = std::lower_bound(from, ids_.end(), id);
    if (from == ids_.end()) return;
    if (*from == id) out->push_back(&postings_[from - ids_.begin()]);
  }
}

std::vector<storage::RowId> InvertedIndex::ScanCandidateRows(
    const Vocabulary& vocab, std::string_view sample) const {
  const MatchPolicy& policy = vocab.policy();
  const std::vector<std::string> sample_tokens = Tokenize(sample);
  if (sample_tokens.empty()) return {all_rows_.begin(), all_rows_.end()};
  // Whether this index's token `token` can match sample token `t`. If the
  // sample is a substring of the value, each maximal alphanumeric run of
  // the sample is contained inside some token of the value (the first/last
  // runs possibly as a proper infix).
  const size_t max_edit = policy.max_edit_distance;
  const auto matches = [&](const std::string& token, const std::string& t) {
    if (policy.mode == MatchMode::kSubstring) {
      return token.find(t) != std::string::npos;
    }
    if (policy.mode != MatchMode::kFuzzyTokenSubset) return token == t;
    return BoundedEditDistance(token, t, max_edit) <= max_edit;
  };
  std::vector<storage::RowId> acc;
  for (size_t j = 0; j < sample_tokens.size(); ++j) {
    // Gather per-token rows the pre-acceleration way: every token scanned,
    // a fresh vector per union/intersection — this path must not benefit
    // from (or depend on) the merge kernels it is the reference for.
    std::vector<storage::RowId> rows;
    for (size_t k = 0; k < ids_.size(); ++k) {
      if (!matches(vocab.token(ids_[k]), sample_tokens[j])) continue;
      rows.insert(rows.end(), postings_[k].begin(), postings_[k].end());
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    if (j > 0) {
      std::vector<storage::RowId> merged;
      std::set_intersection(acc.begin(), acc.end(), rows.begin(), rows.end(),
                            std::back_inserter(merged));
      rows = std::move(merged);
    }
    acc = std::move(rows);
    if (acc.empty()) break;
  }
  return acc;
}

size_t InvertedIndex::index_bytes() const {
  size_t bytes = all_rows_.capacity() * sizeof(uint32_t) +
                 ids_.capacity() * sizeof(TokenId);
  for (const PostingList& list : postings_) {
    bytes += list.capacity() * sizeof(uint32_t) + sizeof(PostingList);
  }
  return bytes;
}

}  // namespace mweaver::text
