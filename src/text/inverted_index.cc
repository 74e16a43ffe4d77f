#include "text/inverted_index.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace mweaver::text {

namespace {

// Reusable per-thread probe scratch: warm probes allocate only for
// tokenizing their sample and for their returned result. Thread-local
// because concurrent service workers probe one shared engine.
struct ProbeScratch {
  PostingList acc;     // intersection accumulator
  PostingList rows;    // per-token row set (union of candidate postings)
  PostingList rows_b;  // second union buffer: the first token's union stays
                       // referenced (never copied) while the second token's
                       // union is built
  PostingList tmp;
  std::vector<InvertedIndex::TokenId> token_ids;
  std::vector<const PostingList*> lists;
};

ProbeScratch& LocalScratch() {
  thread_local ProbeScratch scratch;
  return scratch;
}

void AddKernelStats(const KernelStats& kernels, ProbeStats* stats) {
  if (stats == nullptr) return;
  stats->kernel_array_array += kernels.array_array;
  stats->kernel_array_bitmap += kernels.array_bitmap;
  stats->kernel_scalar_fallback += kernels.scalar_fallback;
}

}  // namespace

InvertedIndex::InvertedIndex(const storage::Relation& relation,
                             storage::AttributeId attribute,
                             const MatchPolicy& policy, uint32_t shard_index,
                             uint32_t shard_count)
    : policy_(policy), shard_index_(shard_index), shard_count_(shard_count) {
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    const storage::RowId row = static_cast<storage::RowId>(r);
    if (relation.is_deleted(row)) continue;
    if (shard_count_ > 1 && ShardOfRow(row, shard_count_) != shard_index_) {
      continue;
    }
    IndexRow(row, relation.at(row, attribute));
  }
}

void InvertedIndex::AddRow(storage::RowId row, const storage::Value& v) {
  MW_DCHECK(all_rows_.empty() || all_rows_.back() < row)
      << "incremental rows must arrive in increasing id order";
  IndexRow(row, v);
}

void InvertedIndex::IndexRow(storage::RowId row, const storage::Value& v) {
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
      if (policy_.mode == MatchMode::kSubstring) {
        grams_.AddToken(it->second, it->first);
      } else if (DeletionIndex::Supports(policy_)) {
        deletions_.AddToken(it->second, it->first);
      }
    }
    postings_[it->second].push_back(static_cast<uint32_t>(row));
  }
}

void InvertedIndex::RemoveRow(storage::RowId row, const storage::Value& v) {
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
    // an empty row set and an absent token identically, and retaining it
    // keeps the candidate table append-only. Compact() reclaims.
  }
}

const PostingList* InvertedIndex::PostingsOf(
    const std::string& token) const {
  auto it = token_ids_.find(token);
  return it == token_ids_.end() ? nullptr : &postings_[it->second];
}

void InvertedIndex::SubstringTokenIds(const std::string& token,
                                      std::vector<TokenId>* out,
                                      ProbeStats* stats,
                                      KernelStats* kernels) const {
  grams_.Candidates(token, out,
                    stats != nullptr ? &stats->candidates_examined : nullptr,
                    kernels);
  // A query of <= 3 chars is a single indexed gram, so its posting list is
  // already the exact containment set — no residual verification needed.
  if (token.size() <= 3) return;
  // Residual verification: trigram containment over-approximates.
  out->erase(std::remove_if(out->begin(), out->end(),
                            [&](TokenId id) {
                              return tokens_[id].find(token) ==
                                     std::string::npos;
                            }),
             out->end());
}

void InvertedIndex::FuzzyTokenIds(const std::string& token,
                                  std::vector<TokenId>* out,
                                  ProbeStats* stats,
                                  KernelStats* kernels) const {
  const size_t max_edit = policy_.max_edit_distance;
  if (DeletionIndex::Supports(policy_)) {
    deletions_.Candidates(
        token, max_edit, out,
        stats != nullptr ? &stats->candidates_examined : nullptr, kernels);
  } else {
    // Edit bound beyond the deletion index: counted full-dictionary scan.
    out->resize(tokens_.size());
    for (TokenId id = 0; id < tokens_.size(); ++id) (*out)[id] = id;
    if (stats != nullptr) {
      ++stats->scan_fallbacks;
      stats->candidates_examined += tokens_.size();
    }
  }
  out->erase(std::remove_if(out->begin(), out->end(),
                            [&](TokenId id) {
                              return BoundedEditDistance(tokens_[id], token,
                                                         max_edit) > max_edit;
                            }),
             out->end());
}

std::vector<storage::RowId> InvertedIndex::CandidateRows(
    const std::string& sample, ProbeStats* stats) const {
  // Chaos site: the accelerated lookup "faults" and the probe degrades to
  // the frozen linear-scan reference. Graceful by construction — both paths
  // return identical candidate sets (the equivalence the property tests
  // pin down), so callers only see latency, never different rows.
  if (MW_FAILPOINT_TRIGGERED("text.lookup.fast_path")) {
    if (stats != nullptr) ++stats->scan_fallbacks;
    return ScanCandidateRows(sample);
  }
  const std::vector<std::string> sample_tokens = Tokenize(sample);
  if (sample_tokens.empty()) {
    // Punctuation-only samples: the index cannot narrow anything down.
    // Return every indexed row; the caller's verification pass decides
    // (and the probe memo must not cache this all-rows result).
    if (stats != nullptr) ++stats->all_rows_fallbacks;
    return all_rows_;
  }
  ProbeScratch& scratch = LocalScratch();
  KernelStats kernels;
  PostingList& acc = scratch.acc;
  // `current` is the intersection so far: the first token's resolved list
  // as-is (no deep copy — the common single-token probe copies it out
  // directly), then `acc` once a real intersection has run. Per-token
  // unions alternate between two scratch buffers so the first token's
  // union survives while the second token's is built.
  const PostingList* current = nullptr;
  PostingList* union_buf = &scratch.rows;
  for (const std::string& t : sample_tokens) {
    // Resolve this query token to a posting list.
    const PostingList* token_rows = nullptr;
    const bool fuzzy = policy_.mode == MatchMode::kFuzzyTokenSubset &&
                       policy_.max_edit_distance > 0;
    if (policy_.mode == MatchMode::kSubstring || fuzzy) {
      if (policy_.mode == MatchMode::kSubstring) {
        SubstringTokenIds(t, &scratch.token_ids, stats, &kernels);
      } else {
        FuzzyTokenIds(t, &scratch.token_ids, stats, &kernels);
      }
      scratch.lists.clear();
      for (TokenId id : scratch.token_ids) {
        scratch.lists.push_back(&postings_[id]);
      }
      if (sample_tokens.size() == 1) {
        // Terminal union: straight into the returned row vector, with no
        // intermediate u32 buffer (the single-token probe is the common
        // case).
        std::vector<storage::RowId> rows;
        UnionPostings(scratch.lists, &rows, &kernels);
        AddKernelStats(kernels, stats);
        return rows;
      }
      UnionPostings(scratch.lists, union_buf, &kernels);
      token_rows = union_buf;
      union_buf = union_buf == &scratch.rows ? &scratch.rows_b : &scratch.rows;
    } else {
      // kExact / kEqualsIgnoreCase / kTokenSubset (and fuzzy at edit 0):
      // the sample token must appear verbatim, so an absent one empties
      // the intersection.
      token_rows = PostingsOf(t);
      if (token_rows == nullptr) {
        AddKernelStats(kernels, stats);
        return {};
      }
      if (stats != nullptr) ++stats->candidates_examined;
    }
    if (current == nullptr) {
      current = token_rows;
    } else {
      IntersectPostings(*current, *token_rows, &scratch.tmp, &kernels);
      std::swap(acc, scratch.tmp);
      current = &acc;
    }
    if (current->empty()) break;
  }
  AddKernelStats(kernels, stats);
  return std::vector<storage::RowId>(current->begin(), current->end());
}

std::vector<storage::RowId> InvertedIndex::ScanCandidateRows(
    const std::string& sample) const {
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
  size_t bytes = grams_.bytes() + deletions_.bytes() +
                 all_rows_.capacity() * sizeof(storage::RowId);
  for (size_t i = 0; i < tokens_.size(); ++i) {
    bytes += tokens_[i].capacity() + sizeof(std::string) +
             postings_[i].capacity() * sizeof(uint32_t) + sizeof(PostingList);
  }
  return bytes;
}

}  // namespace mweaver::text
