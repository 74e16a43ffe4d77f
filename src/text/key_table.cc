#include "text/key_table.h"

#include <utility>

namespace mweaver::text {

template <typename Key>
void FlatKeyTable<Key>::Add(Key key, uint32_t id) {
  if (slots_.empty()) slots_.assign(16, Slot{});
  if ((lists_.size() + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  const size_t mask = slots_.size() - 1;
  size_t i = SlotOf(key, mask);
  while (slots_[i].idx != kEmptySlot && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  if (slots_[i].idx == kEmptySlot) {
    slots_[i] = Slot{key, static_cast<uint32_t>(lists_.size())};
    lists_.emplace_back();
  }
  PostingList& list = lists_[slots_[i].idx];
  if (list.empty() || list.back() != id) list.push_back(id);
}

template <typename Key>
void FlatKeyTable<Key>::Rehash(size_t new_size) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_size, Slot{});
  const size_t mask = new_size - 1;
  for (const Slot& slot : old) {
    if (slot.idx == kEmptySlot) continue;
    size_t i = SlotOf(slot.key, mask);
    while (slots_[i].idx != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

template <typename Key>
size_t FlatKeyTable<Key>::bytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot);
  for (const PostingList& list : lists_) {
    bytes += sizeof(list) + list.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

template class FlatKeyTable<uint32_t>;
template class FlatKeyTable<uint64_t>;

}  // namespace mweaver::text
