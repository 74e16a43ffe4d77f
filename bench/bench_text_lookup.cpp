// Approximate keyword lookup: accelerated candidate resolution (n-gram +
// deletion-neighborhood indexes) vs the linear dictionary scan it replaced.
//
// Three sections:
//  1. index build — engine construction time (the (shard, attribute)
//     builds fan out on the shared pool), and each policy's index memory
//     (an index builds only the candidate table its policy probes);
//  2. per-mode lookup latency — the same probe set through the accelerated
//     CandidateRows and the scan reference ScanCandidateRows of one index
//     set per match mode, with the speedup ratio and candidate-examined
//     counts;
//  3. probe memo — cold vs warm pass of one working set through the
//     FullTextEngine, showing the memo's hit rate and latency effect.
//
// Knobs (environment): MWEAVER_BENCH_MOVIES (default 150, Yahoo-Movies-like
// scale), MWEAVER_BENCH_LOOKUPS (probes per mode, default 400),
// MWEAVER_BENCH_DATASET ("yahoo" | "imdb").
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "kernel_report.h"
#include "text/inverted_index.h"
#include "text/match.h"
#include "text/tokenizer.h"
#include "common/json_util.h"

namespace {

using mweaver::Rng;
using mweaver::Stopwatch;
using mweaver::bench::EnvSize;
using mweaver::bench::Fmt;
using mweaver::bench::PrintRow;

// One probe workload: samples drawn from real attribute values, so probes
// actually hit the indexes (plus a few typo'd and miss samples). When
// `only` is given, the pool is restricted to that attribute's values.
std::vector<std::string> MakeSamples(
    const mweaver::storage::Database& db, size_t count, uint64_t seed,
    const mweaver::text::AttributeRef* only = nullptr) {
  Rng rng(seed);
  // Collect a pool of value strings from searchable string attributes.
  std::vector<std::string> pool;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const auto rel_id = static_cast<mweaver::storage::RelationId>(r);
    const auto& rel = db.relation(rel_id);
    for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
      const auto& schema = rel.schema().attributes()[a];
      const auto attr_id = static_cast<mweaver::storage::AttributeId>(a);
      if (!schema.searchable ||
          schema.type != mweaver::storage::ValueType::kString) {
        continue;
      }
      if (only != nullptr &&
          !(only->relation == rel_id && only->attribute == attr_id)) {
        continue;
      }
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        const auto& v =
            rel.at(static_cast<mweaver::storage::RowId>(row), attr_id);
        if (!v.is_null()) pool.push_back(v.ToDisplayString());
      }
    }
  }
  std::vector<std::string> samples;
  samples.reserve(count);
  while (samples.size() < count && !pool.empty()) {
    std::string value = rng.Pick(pool);
    if (value.empty()) continue;
    const double shape = rng.UniformDouble();
    if (shape < 0.5) {
      // A token of the value (classic keyword probe).
      const auto tokens = mweaver::text::Tokenize(value);
      if (tokens.empty()) continue;
      samples.push_back(rng.Pick(tokens));
    } else if (shape < 0.8) {
      // A substring crossing token boundaries.
      const size_t start = rng.Index(value.size());
      const size_t len =
          std::min<size_t>(3 + rng.Index(10), value.size() - start);
      samples.push_back(value.substr(start, len));
    } else if (shape < 0.95) {
      // A typo'd token (exercises the deletion neighborhood).
      const auto tokens = mweaver::text::Tokenize(value);
      if (tokens.empty()) continue;
      std::string token = rng.Pick(tokens);
      token[rng.Index(token.size())] = 'q';
      samples.push_back(token);
    } else {
      samples.push_back("zzzqx");  // guaranteed miss
    }
  }
  return samples;
}

// Every searchable string attribute of `db`: the columns the engine
// indexes.
std::vector<mweaver::text::AttributeRef> IndexedAttrs(
    const mweaver::storage::Database& db) {
  std::vector<mweaver::text::AttributeRef> refs;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const auto rel_id = static_cast<mweaver::storage::RelationId>(r);
    const auto& rel = db.relation(rel_id);
    for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
      const auto& schema = rel.schema().attributes()[a];
      if (schema.searchable &&
          schema.type == mweaver::storage::ValueType::kString) {
        refs.push_back(mweaver::text::AttributeRef{
            rel_id, static_cast<mweaver::storage::AttributeId>(a)});
      }
    }
  }
  return refs;
}

struct AttrIndex {
  mweaver::text::AttributeRef ref;
  std::unique_ptr<mweaver::text::InvertedIndex> index;
};

// One index per attribute in `refs`, each built for `policy`.
std::vector<AttrIndex> BuildIndexes(
    const mweaver::storage::Database& db,
    const std::vector<mweaver::text::AttributeRef>& refs,
    const mweaver::text::MatchPolicy& policy) {
  std::vector<AttrIndex> indexes;
  for (const mweaver::text::AttributeRef& ref : refs) {
    indexes.push_back(AttrIndex{
        ref, std::make_unique<mweaver::text::InvertedIndex>(
                 db.relation(ref.relation), ref.attribute, policy)});
  }
  return indexes;
}

struct ModeResult {
  double fast_us = 0.0;
  double scan_us = 0.0;
  uint64_t candidates = 0;
  uint64_t scan_fallbacks = 0;
  size_t probes = 0;
  // Block-posting kernel dispatch counters for the accelerated pass.
  uint64_t kernel_array_array = 0;
  uint64_t kernel_array_bitmap = 0;
  uint64_t kernel_bitmap_bitmap = 0;
  uint64_t kernel_scalar_fallback = 0;
};

// Runs every sample against every given attribute index under the policy
// it was built for, both paths, and returns per-probe averages.
ModeResult RunMode(const std::vector<AttrIndex>& indexes,
                   const std::vector<std::string>& samples) {
  ModeResult result;
  mweaver::text::ProbeStats stats;
  Stopwatch watch;
  size_t fast_rows = 0;
  for (const std::string& sample : samples) {
    for (const AttrIndex& attr : indexes) {
      fast_rows += attr.index->CandidateRows(sample, &stats).size();
      ++result.probes;
    }
  }
  result.fast_us = watch.ElapsedMicros();
  result.candidates = stats.candidates_examined;
  result.scan_fallbacks = stats.scan_fallbacks;
  result.kernel_array_array = stats.kernel_array_array;
  result.kernel_array_bitmap = stats.kernel_array_bitmap;
  result.kernel_bitmap_bitmap = stats.kernel_bitmap_bitmap;
  result.kernel_scalar_fallback = stats.kernel_scalar_fallback;

  watch.Restart();
  size_t scan_rows = 0;
  for (const std::string& sample : samples) {
    for (const AttrIndex& attr : indexes) {
      scan_rows += attr.index->ScanCandidateRows(sample).size();
    }
  }
  result.scan_us = watch.ElapsedMicros();
  if (fast_rows != scan_rows) {
    std::fprintf(stderr,
                 "MISMATCH: accelerated path returned %zu rows, scan %zu\n",
                 fast_rows, scan_rows);
    std::exit(1);
  }
  return result;
}

const mweaver::text::MatchPolicy kPolicies[] = {
    mweaver::text::MatchPolicy::Exact(),
    mweaver::text::MatchPolicy::TokenSubset(),
    mweaver::text::MatchPolicy::Substring(),
    mweaver::text::MatchPolicy::Fuzzy(1),
    mweaver::text::MatchPolicy::Fuzzy(2),
};
const char* const kPolicyNames[] = {"kExact", "kTokenSubset", "kSubstring",
                                    "kFuzzy(d=1)", "kFuzzy(d=2)"};

// Runs every policy over one index set built for it, prints the latency
// table plus the per-mode kernel dispatch counts (which container-pair
// kernels the block merges hit), and returns one ModeResult per policy for
// the JSON report.
std::vector<ModeResult> PrintModeTable(
    const mweaver::storage::Database& db,
    const std::vector<mweaver::text::AttributeRef>& refs,
    const std::vector<std::string>& samples) {
  std::vector<ModeResult> results;
  PrintRow("mode", {"fast us/probe", "scan us/probe", "speedup", "cands"},
           22, 14);
  for (size_t p = 0; p < std::size(kPolicies); ++p) {
    const ModeResult r =
        RunMode(BuildIndexes(db, refs, kPolicies[p]), samples);
    const double denom = static_cast<double>(r.probes);
    PrintRow(kPolicyNames[p],
             {Fmt(r.fast_us / denom), Fmt(r.scan_us / denom),
              Fmt(r.scan_us / std::max(r.fast_us, 1e-9), 1) + "x",
              std::to_string(r.candidates)},
             22, 14);
    results.push_back(r);
  }
  PrintRow("kernels", {"arr x arr", "arr x bmp", "bmp x bmp", "scalar"},
           22, 14);
  for (size_t p = 0; p < std::size(kPolicies); ++p) {
    const ModeResult& r = results[p];
    PrintRow(kPolicyNames[p],
             {std::to_string(r.kernel_array_array),
              std::to_string(r.kernel_array_bitmap),
              std::to_string(r.kernel_bitmap_bitmap),
              std::to_string(r.kernel_scalar_fallback)},
             22, 14);
  }
  return results;
}

void WriteModeResults(mweaver::JsonWriter* json,
                      const std::vector<ModeResult>& results) {
  json->BeginObject();
  for (size_t p = 0; p < results.size(); ++p) {
    const ModeResult& r = results[p];
    const double denom = static_cast<double>(std::max<size_t>(r.probes, 1));
    json->Key(kPolicyNames[p]);
    json->BeginObject();
    json->KV("fast_us", r.fast_us / denom);
    json->KV("scan_us", r.scan_us / denom);
    json->KV("candidates", r.candidates);
    json->KV("kernel_array_array", r.kernel_array_array);
    json->KV("kernel_array_bitmap", r.kernel_array_bitmap);
    json->KV("kernel_bitmap_bitmap", r.kernel_bitmap_bitmap);
    json->KV("kernel_scalar_fallback", r.kernel_scalar_fallback);
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mweaver;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE] [--baseline=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  const size_t num_movies = EnvSize("MWEAVER_BENCH_MOVIES", 150);
  const size_t num_lookups = EnvSize("MWEAVER_BENCH_LOOKUPS", 400);
  const bool imdb = bench::UseImdbDataset();

  storage::Database db = [&] {
    if (imdb) {
      datagen::ImdbConfig config;
      config.num_movies = num_movies;
      return datagen::MakeImdb(config);
    }
    datagen::YahooMoviesConfig config;
    config.num_movies = num_movies;
    return datagen::MakeYahooMovies(config);
  }();
  std::printf("=== Approximate keyword lookup: accelerated vs scan ===\n");
  std::printf("source: synthetic %s DB — %zu relations, %zu rows\n\n",
              imdb ? "IMDb-like" : "Yahoo-Movies-like", db.num_relations(),
              db.TotalRows());

  // ---- 1. Index build: engine construction. ----------------------------
  Stopwatch build_watch;
  text::FullTextEngine substring_engine(&db, text::MatchPolicy::Substring());
  const double build_ms = build_watch.ElapsedMillis();

  std::printf("index build (%zu attributes): %.2f ms\n",
              substring_engine.num_indexed_attributes(), build_ms);
  // Each policy's engine builds only the candidate table that policy
  // probes: none for the verbatim-token modes, the gram table for
  // substring, the deletion table for fuzzy.
  std::printf("  index memory per policy:\n");
  for (size_t p = 0; p < std::size(kPolicies); ++p) {
    const text::FullTextEngine engine(&db, kPolicies[p]);
    std::printf("    %-13s %8.2f MiB\n", kPolicyNames[p],
                static_cast<double>(engine.index_bytes()) /
                    (1024.0 * 1024.0));
  }
  std::printf("\n");

  // ---- 2. Per-mode lookup latency, accelerated vs linear scan. -----------
  const std::vector<text::AttributeRef> all_attrs = IndexedAttrs(db);
  const std::vector<std::string> samples = MakeSamples(db, num_lookups, 19);
  std::printf("lookup latency, %zu samples x %zu attributes per mode "
              "(all dictionaries, most tiny):\n",
              samples.size(), all_attrs.size());
  const std::vector<ModeResult> all_results =
      PrintModeTable(db, all_attrs, samples);

  // The sublinear claim lives where the dictionary is big: the linear scan
  // is O(|dict|) per query token, so restrict the probe set to the largest
  // attribute dictionary and draw samples from its own values. Exact-mode
  // indexes hold the dictionaries and no candidate table.
  const std::vector<AttrIndex> dictionaries =
      BuildIndexes(db, all_attrs, text::MatchPolicy::Exact());
  const AttrIndex* largest = &dictionaries.front();
  for (const AttrIndex& attr : dictionaries) {
    if (attr.index->num_tokens() > largest->index->num_tokens()) {
      largest = &attr;
    }
  }
  const std::vector<std::string> big_samples =
      MakeSamples(db, num_lookups, 23, &largest->ref);
  std::printf("\nlookup latency, largest dictionary only (%zu tokens, "
              "%zu rows):\n",
              largest->index->num_tokens(),
              largest->index->num_indexed_rows());
  const std::vector<ModeResult> big_results =
      PrintModeTable(db, {largest->ref}, big_samples);

  if (!out_path.empty() || !baseline_path.empty()) {
    JsonWriter section;
    section.BeginObject();
    section.KV("movies", static_cast<uint64_t>(num_movies));
    section.KV("lookups", static_cast<uint64_t>(num_lookups));
    section.Key("all_attrs");
    WriteModeResults(&section, all_results);
    section.Key("largest_dict");
    WriteModeResults(&section, big_results);
    section.EndObject();
    const std::string section_json = section.Finish();
    if (!out_path.empty() &&
        !bench::MergeSectionIntoFile(out_path, "text_lookup", section_json)) {
      return 1;
    }
    if (!baseline_path.empty()) {
      const int gate = bench::GateAgainstBaseline(baseline_path,
                                                  "text_lookup",
                                                  section_json);
      if (gate != 0) return gate;
    }
  }

  // ---- 3. Probe memo: cold vs warm pass through the engine. --------------
  std::printf("\nprobe memo (FullTextEngine, kSubstring):\n");
  text::ProbeCounters counters;
  Stopwatch memo_watch;
  for (const std::string& sample : samples) {
    for (const text::AttributeRef& ref : all_attrs) {
      (void)substring_engine.MatchingRows(ref, sample, &counters);
    }
  }
  const double cold_us = memo_watch.ElapsedMicros();
  memo_watch.Restart();
  for (const std::string& sample : samples) {
    for (const text::AttributeRef& ref : all_attrs) {
      (void)substring_engine.MatchingRows(ref, sample, &counters);
    }
  }
  const double warm_us = memo_watch.ElapsedMicros();
  const text::ProbeStats totals = counters.Snapshot();
  const auto cache = substring_engine.probe_cache_stats();
  const double per_probe =
      static_cast<double>(samples.size() * all_attrs.size());
  std::printf("  cold pass %8.2f us/probe, warm pass %8.2f us/probe "
              "(%.1fx)\n",
              cold_us / per_probe, warm_us / per_probe,
              warm_us > 0 ? cold_us / warm_us : 0.0);
  std::printf("  probes %llu | memo hits %llu / misses %llu | cache %zu "
              "entries, %zu KiB, %llu evictions, %llu oversize-rejected\n",
              static_cast<unsigned long long>(totals.probes),
              static_cast<unsigned long long>(totals.memo_hits),
              static_cast<unsigned long long>(totals.memo_misses),
              cache.entries, cache.bytes_used / 1024,
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.rejected_oversize));
  return 0;
}
