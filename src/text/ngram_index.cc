#include "text/ngram_index.h"

#include <algorithm>

namespace mweaver::text {

uint32_t NGramIndex::PackGram(std::string_view gram) {
  uint32_t key = static_cast<uint32_t>(gram.size()) << 24;
  for (size_t i = 0; i < gram.size(); ++i) {
    key |= static_cast<uint32_t>(static_cast<unsigned char>(gram[i]))
           << (8 * i);
  }
  return key;
}

void NGramIndex::AddToken(TokenId id, std::string_view token) {
  for (size_t n = 1; n <= 3 && n <= token.size(); ++n) {
    for (size_t i = 0; i + n <= token.size(); ++i) {
      grams_.Add(PackGram(token.substr(i, n)), id);
    }
  }
}

void NGramIndex::Candidates(std::string_view token,
                            std::vector<TokenId>* out, uint64_t* examined,
                            KernelStats* kernels) const {
  out->clear();
  if (token.empty()) return;
  if (token.size() <= 2) {
    if (const PostingList* list = Postings(token)) {
      out->assign(list->begin(), list->end());
    }
    if (examined != nullptr) *examined += out->size();
    return;
  }
  // Collect the posting list of every trigram; any absent trigram proves no
  // dictionary token contains the query.
  thread_local std::vector<const PostingList*> lists;
  lists.clear();
  for (size_t i = 0; i + 3 <= token.size(); ++i) {
    const PostingList* list = Postings(token.substr(i, 3));
    if (list == nullptr) return;
    lists.push_back(list);
  }
  // Intersect smallest-first so the accumulator only shrinks; the rare gram
  // x stop-gram case takes the galloping kernel.
  // Repeated grams ("aaa" twice in "aaaa") resolve to the same list — drop
  // the duplicates, intersecting a set with itself is a no-op.
  std::sort(lists.begin(), lists.end(), [](const auto* a, const auto* b) {
    return a->size() != b->size() ? a->size() < b->size() : a < b;
  });
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  // The cascade is a pre-filter: tokens of length > 3 (the only ones with
  // two or more trigrams) are residually verified by an exact substring
  // find in the caller, so stopping early just hands back a slightly
  // larger superset. Once the accumulator is this small, verifying the
  // stragglers is cheaper than more intersections.
  constexpr size_t kSelectiveEnough = 32;
  if (lists.size() == 1 || lists[0]->size() <= kSelectiveEnough) {
    out->assign(lists[0]->begin(), lists[0]->end());
    if (examined != nullptr) *examined += out->size();
    return;
  }
  thread_local PostingList acc;
  thread_local PostingList tmp;
  IntersectPostings(*lists[0], *lists[1], &acc, kernels);
  for (size_t i = 2;
       i < lists.size() && acc.size() > kSelectiveEnough; ++i) {
    IntersectPostings(acc, *lists[i], &tmp, kernels);
    std::swap(acc, tmp);
  }
  out->assign(acc.begin(), acc.end());
  if (examined != nullptr) *examined += out->size();
}

}  // namespace mweaver::text
