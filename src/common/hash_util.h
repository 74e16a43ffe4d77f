// Hash helpers: combine in the Boost style; hash ranges of hashable values.
#ifndef MWEAVER_COMMON_HASH_UTIL_H_
#define MWEAVER_COMMON_HASH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mweaver {

/// \brief Mixes `value`'s hash into `seed` (boost::hash_combine recipe).
template <typename T>
void HashCombine(size_t* seed, const T& value) {
  *seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ULL + (*seed << 6) +
           (*seed >> 2);
}

/// \brief Hash of a range of hashable elements.
template <typename Iter>
size_t HashRange(Iter begin, Iter end) {
  size_t seed = 0;
  for (Iter it = begin; it != end; ++it) HashCombine(&seed, *it);
  return seed;
}

}  // namespace mweaver

#endif  // MWEAVER_COMMON_HASH_UTIL_H_
