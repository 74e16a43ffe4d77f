// Approximate keyword lookup: accelerated candidate resolution (one
// vocabulary with the policy's n-gram or deletion-neighborhood table,
// shared by every attribute) vs the linear dictionary scan it replaced.
//
// Three sections:
//  1. index build — engine construction time (the attributes tokenize
//     in parallel on the shared pool, then their tokens are filed into
//     the vocabulary, which assigns the ids their postings are keyed
//     by), and each policy's index memory (the vocabulary holds only the
//     candidate table its policy probes);
//  2. per-mode lookup latency — the same probe set through the vocabulary
//     path (each sample resolved once, then candidate rows of each
//     attribute that can hold it) and the scan reference
//     ScanCandidateRows of every attribute, one index set per match mode
//     (median of three timed passes each), with the speedup ratio and
//     candidate-examined counts. Each mode also cross-checks the engine's
//     FindOccurrences against every attribute probed through the scan
//     reference, and exits 1 on a mismatch;
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
#include "text/vocabulary.h"
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

// One index per attribute in `refs` (indexes[i] over refs[i]) and the
// vocabulary they are filed into for `policy` (attribute i under slot i),
// built as an engine builds them.
struct IndexSet {
  std::vector<mweaver::text::AttributeRef> refs;
  mweaver::text::Vocabulary vocab;
  std::vector<mweaver::text::InvertedIndex> indexes;
};

IndexSet BuildIndexes(const mweaver::storage::Database& db,
                      const std::vector<mweaver::text::AttributeRef>& refs,
                      const mweaver::text::MatchPolicy& policy) {
  IndexSet set{refs, mweaver::text::Vocabulary(policy, refs.size()), {}};
  std::vector<mweaver::text::InvertedIndex::Column> columns;
  for (const mweaver::text::AttributeRef& ref : refs) {
    columns.push_back({&db.relation(ref.relation), ref.attribute});
  }
  set.indexes = mweaver::text::InvertedIndex::Build(columns, &set.vocab);
  return set;
}

struct ModeResult {
  double fast_us = 0.0;
  double scan_us = 0.0;
  uint64_t candidates = 0;
  uint64_t scan_fallbacks = 0;
  size_t probes = 0;
  // Posting-kernel counters for the accelerated pass.
  uint64_t kernel_array_array = 0;
  uint64_t kernel_array_bitmap = 0;
  uint64_t kernel_bitmap_bitmap = 0;
  uint64_t kernel_scalar_fallback = 0;
};

// Timed passes per path: RunMode reports the median, so one scheduling
// stall in one pass cannot move the gated per-probe time.
constexpr int kTimedPasses = 3;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Runs every sample against every given attribute index under the policy
// it was built for, both paths, kTimedPasses times each, and returns the
// median per-pass times. The vocabulary path resolves each sample once and
// reads the candidate rows of the attributes that can hold it, as
// FindOccurrences does; the scan path scans every attribute. Every pass
// checks that both paths return the same rows; the counters are the first
// pass's (one pass over the probe set, as the baseline records them).
ModeResult RunMode(const IndexSet& set,
                   const std::vector<std::string>& samples) {
  const std::vector<mweaver::text::InvertedIndex>& indexes = set.indexes;
  ModeResult result;
  std::vector<double> fast_us;
  std::vector<double> scan_us;
  mweaver::text::ResolvedSample resolved;
  std::vector<uint64_t> slots;
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    mweaver::text::ProbeStats stats;
    Stopwatch watch;
    size_t fast_rows = 0;
    for (const std::string& sample : samples) {
      set.vocab.Resolve(sample, &resolved, &stats);
      set.vocab.CandidateSlots(resolved, &slots);
      for (uint32_t slot = 0; slot < indexes.size(); ++slot) {
        if ((slots[slot >> 6] >> (slot & 63) & 1) == 0) continue;
        fast_rows +=
            set.vocab.CandidateRows(indexes[slot], resolved, &stats).size();
      }
    }
    fast_us.push_back(watch.ElapsedMicros());
    if (pass == 0) {
      result.probes = samples.size() * indexes.size();
      result.candidates = stats.candidates_examined;
      result.scan_fallbacks = stats.scan_fallbacks;
      result.kernel_array_array = stats.kernel_array_array;
      result.kernel_array_bitmap = stats.kernel_array_bitmap;
      result.kernel_bitmap_bitmap = stats.kernel_bitmap_bitmap;
      result.kernel_scalar_fallback = stats.kernel_scalar_fallback;
    }

    watch.Restart();
    size_t scan_rows = 0;
    for (const std::string& sample : samples) {
      for (const mweaver::text::InvertedIndex& index : indexes) {
        scan_rows += index.ScanCandidateRows(set.vocab, sample).size();
      }
    }
    scan_us.push_back(watch.ElapsedMicros());
    if (fast_rows != scan_rows) {
      std::fprintf(stderr,
                   "MISMATCH: accelerated path returned %zu rows, scan %zu\n",
                   fast_rows, scan_rows);
      std::exit(1);
    }
  }
  result.fast_us = Median(fast_us);
  result.scan_us = Median(scan_us);
  return result;
}

// FindOccurrences of a memo-less engine against every attribute of `set`
// probed through the scan reference and verified, keeping the attributes
// with matches: both the attribute list and every row set must agree.
// Returns the number of samples that disagree.
size_t CheckOccurrences(const mweaver::storage::Database& db,
                        const IndexSet& set,
                        const std::vector<std::string>& samples) {
  using mweaver::text::NoisyContains;
  mweaver::text::EngineOptions options;
  options.probe_cache_bytes = 0;
  const mweaver::text::FullTextEngine engine(&db, set.vocab.policy(),
                                             options);
  size_t mismatches = 0;
  for (const std::string& sample : samples) {
    const std::vector<mweaver::text::Occurrence> found =
        engine.FindOccurrences(sample);
    size_t next = 0;
    bool same = true;
    for (size_t i = 0; i < set.indexes.size(); ++i) {
      const mweaver::text::AttributeRef& ref = set.refs[i];
      const auto& rel = db.relation(ref.relation);
      std::vector<mweaver::storage::RowId> rows;
      for (const auto row :
           set.indexes[i].ScanCandidateRows(set.vocab, sample)) {
        if (NoisyContains(rel.at(row, ref.attribute).ToDisplayString(),
                          sample, set.vocab.policy())) {
          rows.push_back(row);
        }
      }
      if (rows.empty()) continue;
      same = same && next < found.size() && found[next].attr == ref &&
             *found[next].rows == rows;
      ++next;
    }
    if (!same || next != found.size()) {
      std::fprintf(stderr, "MISMATCH: FindOccurrences('%s') differs from "
                   "the every-attribute scan\n", sample.c_str());
      ++mismatches;
    }
  }
  return mismatches;
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
// table plus the per-mode posting-kernel counts, and returns one
// ModeResult per policy for the JSON report.
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
  // Each policy's vocabulary builds only the candidate table that policy
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
  size_t mismatches = 0;
  for (const text::MatchPolicy& policy : kPolicies) {
    mismatches +=
        CheckOccurrences(db, BuildIndexes(db, all_attrs, policy), samples);
  }
  std::printf("FindOccurrences vs every-attribute scan: %zu samples x %zu "
              "modes, %zu mismatches\n",
              samples.size(), std::size(kPolicies), mismatches);
  if (mismatches > 0) return 1;

  // The sublinear claim lives where the dictionary is big: the linear scan
  // is O(|dict|) per query token, so restrict the probe set to the
  // attribute whose index holds the most tokens and draw samples from its
  // own values.
  const IndexSet dictionaries =
      BuildIndexes(db, all_attrs, text::MatchPolicy::Exact());
  size_t largest = 0;
  for (size_t i = 0; i < dictionaries.indexes.size(); ++i) {
    if (dictionaries.indexes[i].num_tokens() >
        dictionaries.indexes[largest].num_tokens()) {
      largest = i;
    }
  }
  const text::AttributeRef& largest_ref = dictionaries.refs[largest];
  const std::vector<std::string> big_samples =
      MakeSamples(db, num_lookups, 23, &largest_ref);
  std::printf("\nlookup latency, largest dictionary only (%zu tokens, "
              "%zu rows):\n",
              dictionaries.indexes[largest].num_tokens(),
              dictionaries.indexes[largest].num_indexed_rows());
  const std::vector<ModeResult> big_results =
      PrintModeTable(db, {largest_ref}, big_samples);

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
