// The flat key table behind both candidate indexes: an open-addressed hash
// table from a packed key to the posting list (a sorted u32 vector,
// text/posting_list.h) of the dictionary token ids filed under it.
// NGramIndex files each token under its 1/2/3-grams (a gram packed into 32
// bits); DeletionIndex files it under the 64-bit FNV-1a hashes of its
// deletion variants.
//
// Linear probing at load factor <= 0.5 over a power-of-two slot array: a
// probe touches one cache line and takes ~1.5 steps, where a node-based
// unordered_map paid a bucket indirection plus a node chase per lookup.
// Probes are the hot path (a substring probe of length L performs L-2
// trigram finds; a fuzzy probe ~L^2/2 variant finds, most of them misses).
//
// The key width is a template parameter so each slot is no wider than its
// key needs: the gram table's 8-byte slots would double to 16 with a u64
// key, for no information.
#ifndef MWEAVER_TEXT_KEY_TABLE_H_
#define MWEAVER_TEXT_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/posting_list.h"

namespace mweaver::text {

/// \brief Key -> sorted token-id list, built by appending ids in
/// non-decreasing order (a dictionary only grows).
template <typename Key>
class FlatKeyTable {
 public:
  /// \brief Files token `id` under `key`, creating the key's list. `id`
  /// must be >= every id already filed; a repeat of the list's last id is
  /// dropped (one token can yield the same key twice: "aaa" holds the gram
  /// "aa" twice). The slot array doubles when an insert would push the load
  /// factor past 0.5.
  void Add(Key key, uint32_t id);

  /// \brief The token ids filed under `key`, or nullptr.
  const PostingList* Find(Key key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(key, mask); slots_[i].idx != kEmptySlot;
         i = (i + 1) & mask) {
      if (slots_[i].key == key) return &lists_[slots_[i].idx];
    }
    return nullptr;
  }

  /// \brief Number of distinct keys.
  size_t size() const { return lists_.size(); }

  /// \brief Approximate heap footprint: the slot array plus every list
  /// (its allocated capacity and its vector header).
  size_t bytes() const;

 private:
  struct Slot {
    Key key = 0;
    uint32_t idx = kEmptySlot;  // into lists_
  };
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  // Fibonacci mix, high bits: packed grams differ mostly in low character
  // bits, which a plain mask would collide heavily.
  static size_t SlotOf(Key key, size_t mask) {
    return static_cast<size_t>(
               (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }
  void Rehash(size_t new_size);

  std::vector<PostingList> lists_;  // in key-creation order
  std::vector<Slot> slots_;         // power-of-two size
};

extern template class FlatKeyTable<uint32_t>;
extern template class FlatKeyTable<uint64_t>;

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_KEY_TABLE_H_
