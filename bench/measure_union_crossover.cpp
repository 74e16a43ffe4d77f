// Measures the k-way array-merge vs bitmap-accumulation crossover that sets
// kUnionArrayMergeMaxLists (text/posting_block.h). For each list count k it
// unions k sparse array containers (random sorted u16 sets) both ways, using
// the same internal kernels UnionBlocks dispatches to:
//
//   merge:  cascade of UnionU16Scalar two-pointer merges over two scratch
//           buffers — what the array-merge strategy runs;
//   bitmap: scatter every contributor's bits into a 1024-word scratch
//           bitmap, popcount, extract back to a sorted array — what the
//           bitmap-accumulation strategy runs (including the convert-down,
//           since sparse results convert back to arrays).
//
// Knobs (environment): MWEAVER_BENCH_CARDINALITY (values per input list,
// default 64 — the average container cardinality the fuzzy/substring probes
// produce), MWEAVER_BENCH_ROUNDS (repetitions per k, default 2000).
//
// The printed table is the provenance for the constant: rerun this after
// kernel changes and update the posting_block.h comment if the crossover
// moves.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench_util.h"
#include "text/posting_block.h"

namespace {

using mweaver::bench::EnvSize;
using mweaver::text::BlockPostingList;
using mweaver::text::internal::UnionU16Scalar;

std::vector<uint16_t> RandomSortedU16(std::mt19937* rng, size_t n,
                                      uint32_t value_range) {
  std::uniform_int_distribution<uint32_t> dist(0, value_range - 1);
  std::vector<uint16_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<uint16_t>(dist(*rng)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

double Now() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t MergeCascade(const std::vector<std::vector<uint16_t>>& inputs,
                    std::vector<uint16_t>* acc, std::vector<uint16_t>* tmp) {
  acc->assign(inputs[0].begin(), inputs[0].end());
  for (size_t i = 1; i < inputs.size(); ++i) {
    tmp->resize(acc->size() + inputs[i].size());
    const size_t n = UnionU16Scalar(acc->data(), acc->size(),
                                    inputs[i].data(), inputs[i].size(),
                                    tmp->data());
    tmp->resize(n);
    acc->swap(*tmp);
  }
  return acc->size();
}

size_t BitmapAccumulate(const std::vector<std::vector<uint16_t>>& inputs,
                        std::vector<uint64_t>* bits,
                        std::vector<uint16_t>* out) {
  // Mirrors UnionBlocks' range-bounded accumulation: zeroing, popcount and
  // extraction touch only the word range the contributors span.
  bits->resize(BlockPostingList::kBitmapWords);
  size_t lo_word = BlockPostingList::kBitmapWords;
  size_t hi_word = 0;
  for (const std::vector<uint16_t>& in : inputs) {
    if (in.empty()) continue;
    lo_word = std::min(lo_word, static_cast<size_t>(in.front() >> 6));
    hi_word = std::max(hi_word, static_cast<size_t>(in.back() >> 6));
  }
  if (lo_word > hi_word) {
    lo_word = 0;
    hi_word = 0;
  }
  std::memset(bits->data() + lo_word, 0, (hi_word - lo_word + 1) * 8);
  for (const std::vector<uint16_t>& in : inputs) {
    for (uint16_t low : in) {
      (*bits)[low >> 6] |= uint64_t{1} << (low & 63);
    }
  }
  uint32_t card = 0;
  for (size_t w = lo_word; w <= hi_word; ++w) {
    card += static_cast<uint32_t>(std::popcount((*bits)[w]));
  }
  // Extract straight to a sorted array, as the sparse-result path does.
  out->clear();
  out->reserve(card);
  for (size_t w = lo_word; w <= hi_word; ++w) {
    uint64_t word = (*bits)[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      out->push_back(static_cast<uint16_t>(w * 64 + static_cast<size_t>(b)));
      word &= word - 1;
    }
  }
  return out->size();
}

}  // namespace

int main() {
  const size_t cardinality = EnvSize("MWEAVER_BENCH_CARDINALITY", 64);
  const size_t rounds = EnvSize("MWEAVER_BENCH_ROUNDS", 2000);
  // Values are drawn from [0, range): a full 64K span models big-dictionary
  // containers, a narrow span the small-dictionary probes whose bitmap
  // epilogue the range bounding makes cheap.
  const uint32_t value_range = static_cast<uint32_t>(
      std::min<size_t>(EnvSize("MWEAVER_BENCH_VALUE_RANGE", 65536), 65536));
  std::mt19937 rng(7);

  std::printf("=== union crossover: k-way array merge vs bitmap "
              "accumulation ===\n");
  std::printf("input: k sorted u16 arrays, ~%zu values each in [0, %u), "
              "%zu rounds per k\n\n",
              cardinality, value_range, rounds);
  std::printf("%6s %14s %14s %10s\n", "k", "merge us", "bitmap us", "ratio");

  size_t crossover = 0;
  std::vector<uint16_t> acc;
  std::vector<uint16_t> tmp;
  std::vector<uint64_t> bits;
  volatile size_t sink = 0;  // defeat dead-code elimination
  for (size_t k = 2; k <= 48; k += (k < 12 ? 2 : 4)) {
    std::vector<std::vector<uint16_t>> inputs(k);
    for (auto& in : inputs) in = RandomSortedU16(&rng, cardinality, value_range);

    const double t0 = Now();
    for (size_t r = 0; r < rounds; ++r) {
      sink = sink + MergeCascade(inputs, &acc, &tmp);
    }
    const double merge_us = (Now() - t0) / static_cast<double>(rounds);

    const double t1 = Now();
    for (size_t r = 0; r < rounds; ++r) {
      sink = sink + BitmapAccumulate(inputs, &bits, &acc);
    }
    const double bitmap_us = (Now() - t1) / static_cast<double>(rounds);

    std::printf("%6zu %14.3f %14.3f %9.2fx\n", k, merge_us, bitmap_us,
                bitmap_us / merge_us);
    if (crossover == 0 && merge_us > bitmap_us) crossover = k;
  }
  (void)sink;

  if (crossover != 0) {
    std::printf("\ncrossover: bitmap accumulation first wins at k = %zu\n",
                crossover);
  } else {
    std::printf("\ncrossover: array merge won at every measured k\n");
  }
  std::printf("current kUnionArrayMergeMaxLists = %zu\n",
              mweaver::text::kUnionArrayMergeMaxLists);
  return 0;
}
