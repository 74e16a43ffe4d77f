#include "text/tokenizer.h"

#include <cctype>

namespace mweaver::text {

namespace {

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

// Calls fn(begin, end) for every maximal alphanumeric run of `s` at least
// `min_length` characters long.
template <typename Fn>
void ForEachRun(std::string_view s, size_t min_length, Fn&& fn) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !IsTokenChar(s[i])) ++i;
    const size_t begin = i;
    while (i < s.size() && IsTokenChar(s[i])) ++i;
    if (i > begin && i - begin >= min_length) fn(begin, i);
  }
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view s, size_t min_length) {
  std::vector<std::string> tokens;
  TokenizeInto(s, &tokens, min_length);
  return tokens;
}

void TokenizeInto(std::string_view s, std::vector<std::string>* out,
                  size_t min_length) {
  // Counting first sizes the result once.
  size_t count = 0;
  ForEachRun(s, min_length, [&](size_t, size_t) { ++count; });
  out->resize(count);
  size_t k = 0;
  ForEachRun(s, min_length, [&](size_t begin, size_t end) {
    std::string& token = (*out)[k++];
    token.assign(s.substr(begin, end - begin));
    for (char& c : token) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  });
}

}  // namespace mweaver::text
