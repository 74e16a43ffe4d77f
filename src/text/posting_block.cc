#include "text/posting_block.h"

#include <algorithm>
#include <cstring>

namespace mweaver::text {

namespace internal {

size_t IntersectU16(const uint16_t* a, size_t na, const uint16_t* b, size_t nb,
                    uint16_t* out, uint64_t* gallops) {
  // Iterate the smaller array; gallop through the larger when skewed.
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  size_t n = 0;
  if (na * 16 < nb) {
    if (gallops != nullptr) ++(*gallops);
    size_t j = 0;
    for (size_t i = 0; i < na; ++i) {
      const uint16_t x = a[i];
      // Gallop: doubling probe from j, then binary search the bracket.
      size_t step = 1;
      size_t lo = j;
      size_t hi = j;
      while (hi < nb && b[hi] < x) {
        lo = hi + 1;
        hi += step;
        step *= 2;
      }
      hi = std::min(hi, nb);
      j = static_cast<size_t>(std::lower_bound(b + lo, b + hi, x) - b);
      if (j == nb) break;
      if (b[j] == x) {
        out[n++] = x;
        ++j;
      }
    }
    return n;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const uint16_t x = a[i];
    const uint16_t y = b[j];
    out[n] = x;
    n += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return n;
}

size_t UnionU16Scalar(const uint16_t* a, size_t na, const uint16_t* b,
                      size_t nb, uint16_t* out) {
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i < na && j < nb) {
    const uint16_t x = a[i];
    const uint16_t y = b[j];
    out[n++] = std::min(x, y);
    i += (x <= y);
    j += (y <= x);
  }
  while (i < na) out[n++] = a[i++];
  while (j < nb) out[n++] = b[j++];
  return n;
}

uint32_t AndBitmaps(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  uint32_t card = 0;
  for (size_t w = 0; w < BlockPostingList::kBitmapWords; ++w) {
    out[w] = a[w] & b[w];
    card += static_cast<uint32_t>(std::popcount(out[w]));
  }
  return card;
}

void OrBitmapInto(const uint64_t* src, uint64_t* out) {
  for (size_t w = 0; w < BlockPostingList::kBitmapWords; ++w) {
    out[w] |= src[w];
  }
}

size_t IntersectArrayBitmap(const uint16_t* a, size_t na, const uint64_t* bm,
                            uint16_t* out) {
  size_t n = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint16_t x = a[i];
    out[n] = x;
    n += (bm[x >> 6] >> (x & 63)) & 1;
  }
  return n;
}

}  // namespace internal

BlockPostingList::Container& BlockPostingList::AddContainer(uint16_t key) {
  MW_DCHECK(num_active_ == 0 || containers_[num_active_ - 1].key < key);
  if (num_active_ == containers_.size()) containers_.emplace_back();
  Container& ct = containers_[num_active_++];
  ct.key = key;
  ct.is_bitmap = false;
  ct.cardinality = 0;
  ct.array.clear();
  return ct;
}

void BlockPostingList::ToBitmap(Container* ct) {
  ct->bitmap.assign(kBitmapWords, 0);
  for (uint16_t low : ct->array) {
    ct->bitmap[low >> 6] |= uint64_t{1} << (low & 63);
  }
  ct->array.clear();
  ct->is_bitmap = true;
}

void BlockPostingList::ToArrayIfSparse(Container* ct) {
  if (!ct->is_bitmap || ct->cardinality > kArrayMaxCardinality) return;
  ct->array.clear();
  ct->array.reserve(ct->cardinality);
  for (size_t w = 0; w < kBitmapWords; ++w) {
    uint64_t word = ct->bitmap[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      ct->array.push_back(
          static_cast<uint16_t>(w * 64 + static_cast<size_t>(b)));
      word &= word - 1;
    }
  }
  ct->is_bitmap = false;
}

void BlockPostingList::Append(uint32_t value) {
  MW_DCHECK(size_ == 0 || value > last_value_);
  const uint16_t key = static_cast<uint16_t>(value >> 16);
  const uint16_t low = static_cast<uint16_t>(value & 0xFFFF);
  Container* ct = num_active_ > 0 ? &containers_[num_active_ - 1] : nullptr;
  if (ct == nullptr || ct->key != key) ct = &AddContainer(key);
  if (ct->is_bitmap) {
    ct->bitmap[low >> 6] |= uint64_t{1} << (low & 63);
  } else {
    ct->array.push_back(low);
    if (ct->array.size() > kArrayMaxCardinality) ToBitmap(ct);
  }
  ++ct->cardinality;
  ++size_;
  last_value_ = value;
}

bool BlockPostingList::Remove(uint32_t value) {
  const uint16_t key = static_cast<uint16_t>(value >> 16);
  const uint16_t low = static_cast<uint16_t>(value & 0xFFFF);
  Container* begin = containers_.data();
  Container* end = begin + num_active_;
  Container* it = std::lower_bound(
      begin, end, key,
      [](const Container& ct, uint16_t k) { return ct.key < k; });
  if (it == end || it->key != key) return false;
  if (it->is_bitmap) {
    uint64_t& word = it->bitmap[low >> 6];
    const uint64_t bit = uint64_t{1} << (low & 63);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    --it->cardinality;
    // Density dropped through the break-even: convert back down so merges
    // see the same representation a fresh build of this set would use.
    ToArrayIfSparse(it);
  } else {
    auto pos = std::lower_bound(it->array.begin(), it->array.end(), low);
    if (pos == it->array.end() || *pos != low) return false;
    it->array.erase(pos);
    --it->cardinality;
  }
  --size_;
  if (it->cardinality == 0) {
    // Deactivate without losing the pooled buffers: rotate the dead slot
    // past the remaining active containers so it parks at num_active_.
    std::rotate(it, it + 1, begin + num_active_);
    --num_active_;
  }
  if (size_ > 0 && value == last_value_) {
    const Container& last = containers_[num_active_ - 1];
    const uint32_t base = static_cast<uint32_t>(last.key) << 16;
    if (last.is_bitmap) {
      for (size_t w = kBitmapWords; w-- > 0;) {
        if (last.bitmap[w] == 0) continue;
        const int b = 63 - std::countl_zero(last.bitmap[w]);
        last_value_ =
            base + static_cast<uint32_t>(w * 64 + static_cast<size_t>(b));
        break;
      }
    } else {
      last_value_ = base + last.array.back();
    }
  }
  return true;
}

void BlockPostingList::CopyFrom(const BlockPostingList& other) {
  Reset();
  for (size_t c = 0; c < other.num_active_; ++c) {
    const Container& src = other.containers_[c];
    Container& dst = AddContainer(src.key);
    dst.is_bitmap = src.is_bitmap;
    dst.cardinality = src.cardinality;
    if (src.is_bitmap) {
      dst.bitmap = src.bitmap;
    } else {
      dst.array = src.array;
    }
    size_ += src.cardinality;
  }
  last_value_ = other.last_value_;
}

bool BlockPostingList::Contains(uint32_t value) const {
  const uint16_t key = static_cast<uint16_t>(value >> 16);
  const uint16_t low = static_cast<uint16_t>(value & 0xFFFF);
  const Container* begin = containers_.data();
  const Container* end = begin + num_active_;
  const Container* it = std::lower_bound(
      begin, end, key,
      [](const Container& ct, uint16_t k) { return ct.key < k; });
  if (it == end || it->key != key) return false;
  if (it->is_bitmap) return (it->bitmap[low >> 6] >> (low & 63)) & 1;
  return std::binary_search(it->array.begin(), it->array.end(), low);
}

size_t BlockPostingList::bytes() const {
  size_t bytes = containers_.capacity() * sizeof(Container);
  for (const Container& ct : containers_) {
    bytes += ct.array.capacity() * sizeof(uint16_t) +
             ct.bitmap.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

namespace {

using internal::AndBitmaps;
using internal::IntersectArrayBitmap;
using internal::IntersectU16;
using internal::UnionU16Scalar;

// Scratch buffers for container-level merges. Thread-local: concurrent
// service workers probe one shared engine.
struct BlockScratch {
  std::vector<uint16_t> a16;
  std::vector<uint16_t> b16;
  std::vector<uint64_t> bits;
  std::vector<size_t> pos;
  std::vector<const BlockPostingList::Container*> contrib;
  // Flattened (key, container) directory across all union inputs.
  std::vector<std::pair<uint16_t, const BlockPostingList::Container*>> entries;
};

BlockScratch& LocalBlockScratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

}  // namespace

void IntersectBlocks(const BlockPostingList& a, const BlockPostingList& b,
                     BlockPostingList* out, KernelStats* stats) {
  out->Reset();
  if (a.empty() || b.empty()) return;
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a.num_containers() && ib < b.num_containers()) {
    const BlockPostingList::Container& ca = a.container(ia);
    const BlockPostingList::Container& cb = b.container(ib);
    if (ca.key < cb.key) {
      ++ia;
      continue;
    }
    if (cb.key < ca.key) {
      ++ib;
      continue;
    }
    if (ca.is_bitmap && cb.is_bitmap) {
      if (stats != nullptr) ++stats->bitmap_bitmap;
      BlockPostingList::Container& ct = out->AddContainer(ca.key);
      ct.bitmap.resize(BlockPostingList::kBitmapWords);
      ct.is_bitmap = true;
      ct.cardinality =
          AndBitmaps(ca.bitmap.data(), cb.bitmap.data(), ct.bitmap.data());
      if (ct.cardinality == 0) {
        --out->num_active_;  // drop the empty container
      } else {
        BlockPostingList::ToArrayIfSparse(&ct);
        out->size_ += ct.cardinality;
      }
    } else if (ca.is_bitmap || cb.is_bitmap) {
      // The kernel writes straight into the output container's pooled
      // array buffer — no scratch copy. Empty results just deactivate the
      // container again.
      if (stats != nullptr) ++stats->array_bitmap;
      const auto& arr = ca.is_bitmap ? cb.array : ca.array;
      const auto& bm = ca.is_bitmap ? ca.bitmap : cb.bitmap;
      BlockPostingList::Container& ct = out->AddContainer(ca.key);
      ct.array.resize(arr.size());
      const size_t n = IntersectArrayBitmap(arr.data(), arr.size(), bm.data(),
                                            ct.array.data());
      if (n == 0) {
        --out->num_active_;
      } else {
        ct.array.resize(n);
        ct.cardinality = static_cast<uint32_t>(n);
        out->size_ += n;
      }
    } else {
      if (stats != nullptr) ++stats->array_array;
      BlockPostingList::Container& ct = out->AddContainer(ca.key);
      ct.array.resize(std::min(ca.array.size(), cb.array.size()));
      const size_t n = IntersectU16(
          ca.array.data(), ca.array.size(), cb.array.data(), cb.array.size(),
          ct.array.data(), stats != nullptr ? &stats->scalar_fallback
                                            : nullptr);
      if (n == 0) {
        --out->num_active_;
      } else {
        ct.array.resize(n);
        ct.cardinality = static_cast<uint32_t>(n);
        out->size_ += n;
      }
    }
    ++ia;
    ++ib;
  }
  if (out->size_ > 0) {
    const BlockPostingList::Container& ct =
        out->container(out->num_containers() - 1);
    const uint32_t base = static_cast<uint32_t>(ct.key) << 16;
    if (ct.is_bitmap) {
      for (size_t w = BlockPostingList::kBitmapWords; w-- > 0;) {
        if (ct.bitmap[w] != 0) {
          out->last_value_ = base +
                             static_cast<uint32_t>(w * 64 + 63 -
                                                   static_cast<size_t>(
                                                       std::countl_zero(
                                                           ct.bitmap[w])));
          break;
        }
      }
    } else {
      out->last_value_ = base + ct.array.back();
    }
  }
}

void UnionBlocks(const std::vector<const BlockPostingList*>& lists,
                 BlockPostingList* out, KernelStats* stats) {
  out->Reset();
  if (lists.empty()) return;
  if (lists.size() == 1) {
    out->CopyFrom(*lists[0]);
    return;
  }
  BlockScratch& scratch = LocalBlockScratch();
  std::vector<size_t>& pos = scratch.pos;
  pos.assign(lists.size(), 0);
  while (true) {
    // Next key = min over each list's current container.
    uint32_t key = BlockPostingList::kContainerSpan;  // sentinel > any u16
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i]->num_containers()) {
        key = std::min(key,
                       static_cast<uint32_t>(lists[i]->container(pos[i]).key));
      }
    }
    if (key == BlockPostingList::kContainerSpan) break;
    // Single gather pass: record the contributors for this key into a flat
    // pointer vector (everything downstream iterates that, not the k list
    // cursors), fold in the totals and touched word range, and advance the
    // cursors. The k-way cursor walk runs once per key instead of once per
    // strategy stage.
    std::vector<const BlockPostingList::Container*>& contrib = scratch.contrib;
    contrib.clear();
    size_t total = 0;
    bool any_bitmap = false;
    size_t lo_word = BlockPostingList::kBitmapWords;
    size_t hi_word = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= lists[i]->num_containers()) continue;
      const BlockPostingList::Container& ct = lists[i]->container(pos[i]);
      if (ct.key != key) continue;
      contrib.push_back(&ct);
      total += ct.cardinality;
      if (ct.is_bitmap) {
        any_bitmap = true;
        lo_word = 0;
        hi_word = BlockPostingList::kBitmapWords - 1;
      } else if (!ct.array.empty()) {
        lo_word = std::min(lo_word, static_cast<size_t>(ct.array.front() >> 6));
        hi_word = std::max(hi_word, static_cast<size_t>(ct.array.back() >> 6));
      }
      ++pos[i];
    }
    if (contrib.size() == 1) {
      // Copy-through: no merge kernel runs.
      const BlockPostingList::Container* single = contrib[0];
      BlockPostingList::Container& ct =
          out->AddContainer(static_cast<uint16_t>(key));
      ct.is_bitmap = single->is_bitmap;
      ct.cardinality = single->cardinality;
      if (single->is_bitmap) {
        ct.bitmap = single->bitmap;
      } else {
        ct.array = single->array;
      }
      out->size_ += ct.cardinality;
    } else if (!any_bitmap && contrib.size() <= kUnionArrayMergeMaxLists &&
               total <= BlockPostingList::kArrayMaxCardinality) {
      // Few sparse arrays whose union stays sparse: cascade of two-pointer
      // merges, no bitmap round trip. The final merge (the only one, for
      // the dominant 2-contributor case) lands straight in the output
      // container's pooled buffer.
      BlockPostingList::Container& ct =
          out->AddContainer(static_cast<uint16_t>(key));
      if (contrib.size() == 2) {
        if (stats != nullptr) {
          ++stats->array_array;
          ++stats->scalar_fallback;
        }
        ct.array.resize(contrib[0]->array.size() + contrib[1]->array.size());
        const size_t n = UnionU16Scalar(
            contrib[0]->array.data(), contrib[0]->array.size(),
            contrib[1]->array.data(), contrib[1]->array.size(),
            ct.array.data());
        ct.array.resize(n);
      } else {
        std::vector<uint16_t>& acc = scratch.a16;
        std::vector<uint16_t>& tmp = scratch.b16;
        acc.assign(contrib[0]->array.begin(), contrib[0]->array.end());
        for (size_t c = 1; c + 1 < contrib.size(); ++c) {
          if (stats != nullptr) {
            ++stats->array_array;
            ++stats->scalar_fallback;
          }
          tmp.resize(acc.size() + contrib[c]->array.size());
          const size_t n = UnionU16Scalar(acc.data(), acc.size(),
                                          contrib[c]->array.data(),
                                          contrib[c]->array.size(),
                                          tmp.data());
          tmp.resize(n);
          acc.swap(tmp);
        }
        if (stats != nullptr) {
          ++stats->array_array;
          ++stats->scalar_fallback;
        }
        const BlockPostingList::Container* last = contrib.back();
        ct.array.resize(acc.size() + last->array.size());
        const size_t n = UnionU16Scalar(acc.data(), acc.size(),
                                        last->array.data(),
                                        last->array.size(), ct.array.data());
        ct.array.resize(n);
      }
      ct.cardinality = static_cast<uint32_t>(ct.array.size());
      out->size_ += ct.cardinality;
    } else {
      // Many or dense contributors: accumulate into a bitmap scratch. Each
      // bitmap contributor ORs word-parallel; each array contributor sets
      // its bits. All the fixed-cost passes (zeroing, popcount, extraction)
      // are bounded to the word range the contributors actually touch —
      // small dictionaries use a sliver of the 64K container span, and an
      // 8 KiB sweep per union would dwarf the merge itself.
      std::vector<uint64_t>& bits = scratch.bits;
      bits.resize(BlockPostingList::kBitmapWords);
      if (lo_word > hi_word) {  // all contributors empty
        lo_word = 0;
        hi_word = 0;
      }
      std::memset(bits.data() + lo_word, 0, (hi_word - lo_word + 1) * 8);
      for (const BlockPostingList::Container* c : contrib) {
        if (c->is_bitmap) {
          if (stats != nullptr) ++stats->bitmap_bitmap;
          internal::OrBitmapInto(c->bitmap.data(), bits.data());
        } else {
          if (stats != nullptr) ++stats->array_bitmap;
          for (uint16_t low : c->array) {
            bits[low >> 6] |= uint64_t{1} << (low & 63);
          }
        }
      }
      uint32_t card = 0;
      for (size_t w = lo_word; w <= hi_word; ++w) {
        card += static_cast<uint32_t>(std::popcount(bits[w]));
      }
      BlockPostingList::Container& ct =
          out->AddContainer(static_cast<uint16_t>(key));
      if (card <= BlockPostingList::kArrayMaxCardinality) {
        // Sparse union: extract straight into the array container, never
        // materializing a bitmap copy.
        ct.array.reserve(card);
        for (size_t w = lo_word; w <= hi_word; ++w) {
          uint64_t word = bits[w];
          while (word != 0) {
            const int b = std::countr_zero(word);
            ct.array.push_back(
                static_cast<uint16_t>(w * 64 + static_cast<size_t>(b)));
            word &= word - 1;
          }
        }
      } else {
        // Dense union: the result container owns a full bitmap, so the
        // words outside the touched range must really be zero.
        std::memset(bits.data(), 0, lo_word * 8);
        std::memset(bits.data() + hi_word + 1, 0,
                    (BlockPostingList::kBitmapWords - hi_word - 1) * 8);
        ct.bitmap = bits;
        ct.is_bitmap = true;
      }
      ct.cardinality = card;
      out->size_ += card;
    }
  }
  if (out->size_ > 0) {
    const BlockPostingList::Container& ct =
        out->container(out->num_containers() - 1);
    const uint32_t base = static_cast<uint32_t>(ct.key) << 16;
    if (ct.is_bitmap) {
      for (size_t w = BlockPostingList::kBitmapWords; w-- > 0;) {
        if (ct.bitmap[w] != 0) {
          out->last_value_ = base +
                             static_cast<uint32_t>(w * 64 + 63 -
                                                   static_cast<size_t>(
                                                       std::countl_zero(
                                                           ct.bitmap[w])));
          break;
        }
      }
    } else {
      out->last_value_ = base + ct.array.back();
    }
  }
}

namespace {

// Decodes one container's values (offset by its key base) onto `out`.
template <typename T>
void DecodeContainer(const BlockPostingList::Container& ct,
                     std::vector<T>* out) {
  const uint32_t base = static_cast<uint32_t>(ct.key) << 16;
  if (ct.is_bitmap) {
    out->reserve(out->size() + ct.cardinality);
    for (size_t w = 0; w < BlockPostingList::kBitmapWords; ++w) {
      uint64_t word = ct.bitmap[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        out->push_back(static_cast<T>(
            base + static_cast<uint32_t>(w * 64 + static_cast<size_t>(b))));
        word &= word - 1;
      }
    }
  } else {
    const size_t old = out->size();
    out->resize(old + ct.array.size());
    T* dst = out->data() + old;
    const uint16_t* src = ct.array.data();
    const size_t n = ct.array.size();
    for (size_t i = 0; i < n; ++i) dst[i] = static_cast<T>(base + src[i]);
  }
}

}  // namespace

template <typename T>
void UnionBlocksTo(const std::vector<const BlockPostingList*>& lists,
                   std::vector<T>* out, KernelStats* stats) {
  out->clear();
  if (lists.empty()) return;
  if (lists.size() == 1) {
    lists[0]->AppendTo(out);
    return;
  }
  BlockScratch& scratch = LocalBlockScratch();
  // One flattening pass over every input's container directory — a
  // high-fanout union touches each of the k scattered list objects once,
  // instead of the k-cursor min-key walk re-chasing all of them per key.
  // Directories are key-ascending per list, so the flat view is already
  // grouped whenever all inputs share one key (every dictionary under 64K
  // rows); only genuinely multi-container mixes pay the sort.
  auto& entries = scratch.entries;
  entries.clear();
  bool grouped = true;
  for (const BlockPostingList* list : lists) {
    const size_t n = list->num_containers();
    for (size_t c = 0; c < n; ++c) {
      const BlockPostingList::Container& ct = list->container(c);
      if (!entries.empty() && ct.key < entries.back().first) grouped = false;
      entries.emplace_back(ct.key, &ct);
    }
  }
  if (!grouped) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  for (size_t g = 0; g < entries.size();) {
    const uint16_t key = entries[g].first;
    size_t end = g + 1;
    while (end < entries.size() && entries[end].first == key) ++end;
    // Contributor sweep: totals and the touched word range.
    size_t total = 0;
    bool any_bitmap = false;
    size_t lo_word = BlockPostingList::kBitmapWords;
    size_t hi_word = 0;
    for (size_t e = g; e < end; ++e) {
      const BlockPostingList::Container& ct = *entries[e].second;
      total += ct.cardinality;
      if (ct.is_bitmap) {
        any_bitmap = true;
        lo_word = 0;
        hi_word = BlockPostingList::kBitmapWords - 1;
      } else if (!ct.array.empty()) {
        lo_word = std::min(lo_word, static_cast<size_t>(ct.array.front() >> 6));
        hi_word = std::max(hi_word, static_cast<size_t>(ct.array.back() >> 6));
      }
    }
    const size_t first = g;
    const size_t count = end - g;
    g = end;
    const uint32_t base = static_cast<uint32_t>(key) << 16;
    if (count == 1) {
      DecodeContainer(*entries[first].second, out);
    } else if (!any_bitmap && count <= kUnionArrayMergeMaxLists &&
               total <= BlockPostingList::kArrayMaxCardinality) {
      // Merge cascade over scratch, widened once at the end.
      std::vector<uint16_t>& acc = scratch.a16;
      std::vector<uint16_t>& tmp = scratch.b16;
      const std::vector<uint16_t>& head = entries[first].second->array;
      acc.assign(head.begin(), head.end());
      for (size_t c = 1; c < count; ++c) {
        if (stats != nullptr) {
          ++stats->array_array;
          ++stats->scalar_fallback;
        }
        const std::vector<uint16_t>& next = entries[first + c].second->array;
        tmp.resize(acc.size() + next.size());
        const size_t n = UnionU16Scalar(acc.data(), acc.size(), next.data(),
                                        next.size(), tmp.data());
        tmp.resize(n);
        acc.swap(tmp);
      }
      const size_t old = out->size();
      out->resize(old + acc.size());
      T* dst = out->data() + old;
      for (size_t i = 0; i < acc.size(); ++i) {
        dst[i] = static_cast<T>(base + acc[i]);
      }
    } else {
      // Range-bounded bitmap accumulation, decoded straight to values —
      // no sparse-array extraction or bitmap container copy.
      std::vector<uint64_t>& bits = scratch.bits;
      bits.resize(BlockPostingList::kBitmapWords);
      if (lo_word > hi_word) {  // all contributors empty
        lo_word = 0;
        hi_word = 0;
      }
      std::memset(bits.data() + lo_word, 0, (hi_word - lo_word + 1) * 8);
      for (size_t e = first; e < first + count; ++e) {
        const BlockPostingList::Container* c = entries[e].second;
        if (c->is_bitmap) {
          if (stats != nullptr) ++stats->bitmap_bitmap;
          internal::OrBitmapInto(c->bitmap.data(), bits.data());
        } else {
          if (stats != nullptr) ++stats->array_bitmap;
          for (uint16_t low : c->array) {
            bits[low >> 6] |= uint64_t{1} << (low & 63);
          }
        }
      }
      out->reserve(out->size() + total);
      for (size_t w = lo_word; w <= hi_word; ++w) {
        uint64_t word = bits[w];
        while (word != 0) {
          const int b = std::countr_zero(word);
          out->push_back(static_cast<T>(
              base + static_cast<uint32_t>(w * 64 + static_cast<size_t>(b))));
          word &= word - 1;
        }
      }
    }
  }
}

template void UnionBlocksTo<uint32_t>(
    const std::vector<const BlockPostingList*>&, std::vector<uint32_t>*,
    KernelStats*);
template void UnionBlocksTo<int64_t>(
    const std::vector<const BlockPostingList*>&, std::vector<int64_t>*,
    KernelStats*);

}  // namespace mweaver::text
