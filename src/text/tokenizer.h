// Word tokenizer used by the inverted index and the token-level match
// policies: lowercased maximal runs of alphanumeric characters.
#ifndef MWEAVER_TEXT_TOKENIZER_H_
#define MWEAVER_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace mweaver::text {

/// \brief Splits `s` into lowercased alphanumeric tokens ("Ed Wood!" ->
/// ["ed", "wood"]). Tokens shorter than `min_length` are dropped.
std::vector<std::string> Tokenize(std::string_view s, size_t min_length = 1);

/// \brief Tokenize into `*out` (overwritten), reusing its vector and
/// string capacity: a warm caller-owned buffer allocates nothing.
void TokenizeInto(std::string_view s, std::vector<std::string>* out,
                  size_t min_length = 1);

/// \brief The distinct tokens of one indexed value, sorted, into `*out`
/// (TokenizeInto's reuse contract): the tokens an index files a row under.
void DistinctTokensInto(std::string_view s, std::vector<std::string>* out);

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_TOKENIZER_H_
