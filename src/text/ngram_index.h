// Character n-gram index over a token dictionary, powering sublinear
// kSubstring candidate lookup: instead of scanning every dictionary token
// per query token (O(|dict|)), a probe intersects the posting lists of the
// query's trigrams and verifies only the intersection.
//
// Grams of length 1, 2 and 3 are indexed so that 1- and 2-character query
// tokens resolve exactly (the gram IS the query), and >= 3-character query
// tokens resolve by trigram intersection + residual substring
// verification (trigram containment is necessary but not sufficient:
// "abcxbcd" holds both trigrams of "abcd" without containing it).
//
// Each gram's token ids form a posting list (text/posting_list.h); a probe
// intersects them rarest-first, so a rare gram narrows the probe and a
// stop-gram list (e.g. "the") is galloped through rather than walked.
#ifndef MWEAVER_TEXT_NGRAM_INDEX_H_
#define MWEAVER_TEXT_NGRAM_INDEX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "text/key_table.h"
#include "text/posting_list.h"

namespace mweaver::text {

/// \brief Index of every 1/2/3-gram of a growing token dictionary. Token
/// ids are dense indices into the dictionary the caller keeps.
class NGramIndex {
 public:
  using TokenId = uint32_t;

  /// \brief Indexes one dictionary token. `id` must exceed every id already
  /// indexed (dictionaries only grow — removing a token merely leaves its
  /// posting lists pointing at an id the caller no longer surfaces).
  void AddToken(TokenId id, std::string_view token);

  /// \brief Token ids that may contain `token` as a substring, sorted and
  /// duplicate-free, written to `*out` (cleared first). For 1- and
  /// 2-character tokens the result is exact; for longer tokens it is a
  /// superset and the caller must verify with find(). `*examined` is
  /// incremented by the number of candidate ids produced; `kernels`, when
  /// given, tallies the merge kernels the intersection ran.
  void Candidates(std::string_view token, std::vector<TokenId>* out,
                  uint64_t* examined, KernelStats* kernels = nullptr) const;

  /// \brief Approximate heap footprint of the gram table.
  size_t bytes() const { return grams_.bytes(); }

 private:
  // A gram is at most 3 bytes; packed little-endian with its length tagged
  // in the top byte so "ab" and "ab\0" cannot collide.
  static uint32_t PackGram(std::string_view gram);

  const PostingList* Postings(std::string_view gram) const {
    return grams_.Find(PackGram(gram));
  }

  FlatKeyTable<uint32_t> grams_;
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_NGRAM_INDEX_H_
