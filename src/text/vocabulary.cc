#include "text/vocabulary.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace mweaver::text {

namespace {

// Reusable per-thread probe scratch: warm probes allocate only for their
// returned rows. Thread-local because concurrent service workers probe
// one shared engine.
struct ProbeScratch {
  PostingList acc;     // intersection accumulator
  PostingList rows;    // per-token row set (union of candidate postings)
  PostingList rows_b;  // second union buffer: the first token's union stays
                       // referenced (never copied) while the second token's
                       // union is built
  PostingList tmp;
  std::vector<uint64_t> token_slots;  // CandidateSlots' per-token bits
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

Vocabulary::Vocabulary(const MatchPolicy& policy, size_t num_slots)
    : policy_(policy), num_slots_(num_slots) {}

Vocabulary::TokenId Vocabulary::Add(const std::string& token, uint32_t slot) {
  MW_DCHECK(slot < num_slots_);
  auto [it, inserted] =
      ids_.try_emplace(token, static_cast<TokenId>(tokens_.size()));
  if (inserted) {
    tokens_.push_back(token);
    slots_.emplace_back();
    if (policy_.mode == MatchMode::kSubstring) {
      grams_.AddToken(it->second, token);
    } else if (DeletionIndex::Supports(policy_)) {
      deletions_.AddToken(it->second, token);
    }
  }
  PostingList& slots = slots_[it->second];
  // Builds file slots in increasing order, so this is an append; a
  // delta's insert may land anywhere.
  auto pos = std::lower_bound(slots.begin(), slots.end(), slot);
  if (pos == slots.end() || *pos != slot) slots.insert(pos, slot);
  return it->second;
}

std::optional<Vocabulary::TokenId> Vocabulary::Find(const std::string& token,
                                                    uint32_t slot) const {
  const auto it = ids_.find(token);
  if (it == ids_.end() || !std::binary_search(slots_[it->second].begin(),
                                              slots_[it->second].end(), slot)) {
    return std::nullopt;
  }
  return it->second;
}

void Vocabulary::ResolveToken(const std::string& token,
                              std::vector<TokenId>* out, ProbeStats* stats,
                              KernelStats* kernels) const {
  out->clear();
  uint64_t* examined =
      stats != nullptr ? &stats->candidates_examined : nullptr;
  if (policy_.mode == MatchMode::kSubstring) {
    grams_.Candidates(token, out, examined, kernels);
    // A query of <= 3 chars is a single indexed gram, so its list is
    // already the exact containment set; longer ones verify the residue
    // (trigram containment over-approximates).
    if (token.size() <= 3) return;
    std::erase_if(*out, [&](TokenId id) {
      return tokens_[id].find(token) == std::string::npos;
    });
    return;
  }
  const size_t max_edit = policy_.max_edit_distance;
  if (policy_.mode != MatchMode::kFuzzyTokenSubset || max_edit == 0) {
    // kExact / kEqualsIgnoreCase / kTokenSubset (and fuzzy at edit 0):
    // the sample token must appear verbatim.
    auto it = ids_.find(token);
    if (it == ids_.end()) return;
    out->push_back(it->second);
    if (examined != nullptr) ++*examined;
    return;
  }
  if (DeletionIndex::Supports(policy_)) {
    deletions_.Candidates(token, max_edit, out, examined, kernels);
  } else {
    // Edit bound beyond the deletion index: counted vocabulary scan.
    out->resize(tokens_.size());
    for (TokenId id = 0; id < tokens_.size(); ++id) (*out)[id] = id;
    if (stats != nullptr) {
      ++stats->scan_fallbacks;
      stats->candidates_examined += tokens_.size();
    }
  }
  std::erase_if(*out, [&](TokenId id) {
    return BoundedEditDistance(tokens_[id], token, max_edit) > max_edit;
  });
}

void Vocabulary::Resolve(std::string_view sample, ResolvedSample* out,
                         ProbeStats* stats) const {
  out->sample = sample;
  out->unmatched = false;
  TokenizeInto(sample, &out->tokens);
  out->num_tokens = out->tokens.size();
  if (out->ids.size() < out->num_tokens) out->ids.resize(out->num_tokens);
  KernelStats kernels;
  for (size_t j = 0; j < out->num_tokens; ++j) {
    ResolveToken(out->tokens[j], &out->ids[j], stats, &kernels);
    if (out->ids[j].empty()) {
      out->unmatched = true;
      break;
    }
  }
  AddKernelStats(kernels, stats);
}

void Vocabulary::CandidateSlots(const ResolvedSample& resolved,
                                std::vector<uint64_t>* slots) const {
  const size_t words = (num_slots_ + 63) / 64;
  if (resolved.unmatched) {
    slots->assign(words, 0);
    return;
  }
  slots->assign(words, ~uint64_t{0});
  if (num_slots_ % 64 != 0) {
    slots->back() = (uint64_t{1} << (num_slots_ % 64)) - 1;
  }
  std::vector<uint64_t>& token_slots = LocalScratch().token_slots;
  for (size_t j = 0; j < resolved.num_tokens; ++j) {
    token_slots.assign(words, 0);
    for (const TokenId id : resolved.ids[j]) {
      for (const uint32_t slot : slots_[id]) {
        token_slots[slot >> 6] |= uint64_t{1} << (slot & 63);
      }
    }
    bool any = false;
    for (size_t w = 0; w < words; ++w) {
      (*slots)[w] &= token_slots[w];
      any |= (*slots)[w] != 0;
    }
    if (!any) return;
  }
}

std::vector<storage::RowId> Vocabulary::CandidateRows(
    const InvertedIndex& index, const ResolvedSample& resolved,
    ProbeStats* stats) const {
  // Chaos site: the accelerated lookup "faults" and the probe degrades to
  // the frozen linear-scan reference. Graceful by construction — both paths
  // return identical candidate sets (the equivalence the property tests
  // pin down), so callers only see latency, never different rows.
  if (MW_FAILPOINT_TRIGGERED("text.lookup.fast_path")) {
    if (stats != nullptr) ++stats->scan_fallbacks;
    return index.ScanCandidateRows(*this, resolved.sample);
  }
  if (resolved.num_tokens == 0) {
    // Punctuation-only samples: nothing narrows the rows down. Return
    // every indexed row; the caller's verification pass decides (and the
    // probe memo must not cache this all-rows result).
    if (stats != nullptr) ++stats->all_rows_fallbacks;
    return {index.all_rows().begin(), index.all_rows().end()};
  }
  if (resolved.unmatched) return {};
  ProbeScratch& scratch = LocalScratch();
  KernelStats kernels;
  // `current` is the intersection so far: the first token's row list
  // as-is (no deep copy), then `acc` once a real intersection has run.
  // Per-token unions alternate between two scratch buffers so the first
  // token's union survives while the second token's is built.
  const PostingList* current = nullptr;
  PostingList* union_buf = &scratch.rows;
  for (size_t j = 0; j < resolved.num_tokens; ++j) {
    // This index's postings of every vocabulary token sample token j
    // resolved to.
    scratch.lists.clear();
    index.AppendPostings(resolved.ids[j], &scratch.lists);
    if (resolved.num_tokens == 1) {
      // Terminal union: straight into the returned row vector (the
      // single-token probe is the common case).
      std::vector<storage::RowId> rows;
      UnionPostings(scratch.lists, &rows, &kernels);
      AddKernelStats(kernels, stats);
      return rows;
    }
    if (scratch.lists.empty()) {
      AddKernelStats(kernels, stats);
      return {};
    }
    const PostingList* token_rows = scratch.lists.front();
    if (scratch.lists.size() > 1) {
      UnionPostings(scratch.lists, union_buf, &kernels);
      token_rows = union_buf;
      union_buf = union_buf == &scratch.rows ? &scratch.rows_b : &scratch.rows;
    }
    if (current == nullptr) {
      current = token_rows;
    } else {
      IntersectPostings(*current, *token_rows, &scratch.tmp, &kernels);
      std::swap(scratch.acc, scratch.tmp);
      current = &scratch.acc;
    }
    if (current->empty()) break;
  }
  AddKernelStats(kernels, stats);
  return std::vector<storage::RowId>(current->begin(), current->end());
}

size_t Vocabulary::bytes() const {
  size_t bytes = grams_.bytes() + deletions_.bytes();
  for (size_t id = 0; id < tokens_.size(); ++id) {
    bytes += tokens_[id].capacity() + sizeof(std::string) +
             slots_[id].capacity() * sizeof(uint32_t) + sizeof(PostingList);
  }
  return bytes;
}

}  // namespace mweaver::text
