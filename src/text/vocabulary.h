// One tenant's token vocabulary: every distinct token of every indexed
// attribute, the match policy's one candidate table over those tokens,
// and for each token the attribute slots whose index holds it. This is
// the keyword-search "symbol table" of DBXplorer (Agrawal, Chaudhuri and
// Das, ICDE 2002) and the master index of DISCOVER (Hristidis and
// Papakonstantinou, VLDB 2002): a probe resolves a sample against the
// whole database once, then visits only the attributes that can hold it.
// It is the only map from token string to id: indexes key postings by it.
//
// The candidate table is the policy's:
//  * kSubstring: an NGramIndex — a query token intersects its trigram
//    lists and the residue is verified with find();
//  * kFuzzyTokenSubset with 1 <= d <= DeletionIndex::kMaxEdit: a
//    DeletionIndex — the query's deletion neighborhood, verified by a
//    bounded edit distance;
//  * exact, ignore-case, token-subset and fuzzy d = 0: no table — a query
//    token is looked up verbatim;
//  * fuzzy beyond kMaxEdit: no table — a counted scan of the vocabulary.
//
// A vocabulary only grows: an index that drops a token (RemoveRow drops
// one whose postings empty out) leaves the (token, slot) pair behind, so
// the vocabulary is always a superset of the indexes filed into it, its
// slot filter never loses an attribute, and a token a later insert brings
// back gets its old id. A candidate slot whose index no longer holds the
// token simply contributes no postings.
#ifndef MWEAVER_TEXT_VOCABULARY_H_
#define MWEAVER_TEXT_VOCABULARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "text/deletion_index.h"
#include "text/lookup_stats.h"
#include "text/match.h"
#include "text/ngram_index.h"
#include "text/posting_list.h"

namespace mweaver::text {

class InvertedIndex;

/// \brief One sample's tokens resolved against a Vocabulary. A probe
/// resolves once and reuses the result for every attribute it visits.
/// Callers keep one per thread: `ids` never shrinks, so its vectors keep
/// their capacity across samples.
struct ResolvedSample {
  /// The resolved sample (borrowed: it must outlive every use).
  std::string_view sample;
  /// Tokens of the sample; 0 for a punctuation-only sample, which no
  /// vocabulary can narrow down.
  size_t num_tokens = 0;
  /// True when some sample token matches no vocabulary token: no
  /// attribute holds the sample. Tokens after it are left unresolved.
  bool unmatched = false;
  /// ids[j] for j < num_tokens: sorted ids of the vocabulary tokens that
  /// sample token j can match under the policy (already verified).
  std::vector<std::vector<uint32_t>> ids;
  /// The sample's tokens (scratch: reused across samples).
  std::vector<std::string> tokens;
};

/// \brief Token vocabulary shared by every index of one engine.
class Vocabulary {
 public:
  using TokenId = uint32_t;

  /// \brief An empty vocabulary over `num_slots` attribute slots, for
  /// probes under `policy`.
  Vocabulary(const MatchPolicy& policy, size_t num_slots);

  /// \brief Files `token` under `slot`, adding the token (and its
  /// candidate-table entries) when it is new, and returns its id.
  TokenId Add(const std::string& token, uint32_t slot);

  /// \brief The id of `token` if it is filed under `slot`.
  std::optional<TokenId> Find(const std::string& token, uint32_t slot) const;

  /// \brief The string of token `id`.
  const std::string& token(TokenId id) const { return tokens_[id]; }

  /// \brief Tokenizes `sample` and resolves each token to the vocabulary
  /// tokens it can match. `stats`, when given, accumulates the candidates
  /// examined, scan fallbacks and merge kernels of the resolution.
  void Resolve(std::string_view sample, ResolvedSample* out,
               ProbeStats* stats) const;

  /// \brief Bit s of `*slots` (resized to one bit per slot) is set iff
  /// slot s holds, for every sample token, a token it can match: every
  /// bit for a punctuation-only sample, none when `resolved.unmatched`.
  void CandidateSlots(const ResolvedSample& resolved,
                      std::vector<uint64_t>* slots) const;

  /// \brief Sorted, duplicate-free rows of `index` (filed into this
  /// vocabulary) whose value could noisily contain the resolved sample: a
  /// superset of the true matches, identical to index.ScanCandidateRows.
  std::vector<storage::RowId> CandidateRows(const InvertedIndex& index,
                                            const ResolvedSample& resolved,
                                            ProbeStats* stats) const;

  const MatchPolicy& policy() const { return policy_; }
  size_t num_tokens() const { return tokens_.size(); }
  /// \brief Approximate heap footprint: tokens, slot lists and the
  /// candidate table.
  size_t bytes() const;

 private:
  // Sorted, verified ids of the tokens query token `token` can match.
  void ResolveToken(const std::string& token, std::vector<TokenId>* out,
                    ProbeStats* stats, KernelStats* kernels) const;

  MatchPolicy policy_;
  size_t num_slots_ = 0;
  // tokens_[id] and slots_[id] align; slots_[id] is the sorted list of
  // attribute slots whose index holds tokens_[id].
  std::vector<std::string> tokens_;
  std::vector<PostingList> slots_;
  std::unordered_map<std::string, TokenId> ids_;
  // The candidate table policy_ probes; the other one stays empty.
  NGramIndex grams_;         // kSubstring
  DeletionIndex deletions_;  // DeletionIndex::Supports(policy_)
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_VOCABULARY_H_
