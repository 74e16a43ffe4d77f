#include "text/deletion_index.h"

#include <algorithm>

namespace mweaver::text {

namespace {

// Appends the FNV-1a hash of `token` with the characters at (sorted,
// distinct) positions `skip1` and optionally `skip2` removed.
uint64_t HashSkipping(std::string_view token, size_t skip1, size_t skip2) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < token.size(); ++i) {
    if (i == skip1 || i == skip2) continue;
    h ^= static_cast<unsigned char>(token[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr size_t kNoSkip = static_cast<size_t>(-1);

}  // namespace

void DeletionIndex::CollectVariantHashes(std::string_view token,
                                         size_t budget,
                                         std::vector<uint64_t>* out) {
  out->clear();
  out->push_back(HashSkipping(token, kNoSkip, kNoSkip));
  if (budget >= 1) {
    for (size_t i = 0; i < token.size(); ++i) {
      out->push_back(HashSkipping(token, i, kNoSkip));
    }
  }
  if (budget >= 2) {
    for (size_t i = 0; i < token.size(); ++i) {
      for (size_t j = i + 1; j < token.size(); ++j) {
        out->push_back(HashSkipping(token, i, j));
      }
    }
  }
  // Distinct deletions can coincide ("aab" minus either 'a' is "ab").
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void DeletionIndex::AddToken(TokenId id, std::string_view token) {
  if (token.size() > kMaxIndexedLength) {
    long_tokens_.push_back(id);
    return;
  }
  thread_local std::vector<uint64_t> hashes;
  CollectVariantHashes(token, kMaxEdit, &hashes);
  for (uint64_t h : hashes) variants_.Add(h, id);
}

void DeletionIndex::Candidates(std::string_view token, size_t max_edit,
                               std::vector<TokenId>* out, uint64_t* examined,
                               KernelStats* kernels) const {
  out->clear();
  thread_local std::vector<uint64_t> hashes;
  CollectVariantHashes(token, std::min(max_edit, kMaxEdit), &hashes);
  thread_local std::vector<const PostingList*> lists;
  lists.clear();
  for (uint64_t h : hashes) {
    if (const PostingList* list = variants_.Find(h)) {
      lists.push_back(list);
    }
  }
  // Long tokens bypass the variant table; the caller's edit-distance
  // verification rejects them cheaply (length gap short-circuits).
  if (!long_tokens_.empty()) lists.push_back(&long_tokens_);
  UnionPostings(lists, out, kernels);
  if (examined != nullptr) *examined += out->size();
}

}  // namespace mweaver::text
