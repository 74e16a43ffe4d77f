#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string_view>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "test_util.h"
#include "text/autocomplete.h"
#include "text/fulltext_engine.h"
#include "text/numeric.h"
#include "text/inverted_index.h"
#include "text/match.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace mweaver::text {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using ::mweaver::testing::MakeRandomTextRelation;
using ::mweaver::testing::S;
using ::mweaver::testing::StrAttr;

// ------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, BasicSplitting) {
  EXPECT_EQ(Tokenize("Ed Wood!"), (std::vector<std::string>{"ed", "wood"}));
  EXPECT_EQ(Tokenize("  multiple   spaces "),
            (std::vector<std::string>{"multiple", "spaces"}));
  EXPECT_EQ(Tokenize("a-b_c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Tokenize("!!!").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, KeepsDigits) {
  EXPECT_EQ(Tokenize("2009-12-10"),
            (std::vector<std::string>{"2009", "12", "10"}));
}

TEST(TokenizerTest, MinLengthFilters) {
  EXPECT_EQ(Tokenize("a bb ccc", 2), (std::vector<std::string>{"bb", "ccc"}));
}

// ----------------------------------------------------------------- Match --

TEST(MatchTest, ExactMode) {
  const MatchPolicy p = MatchPolicy::Exact();
  EXPECT_TRUE(NoisyContains("Avatar", "Avatar", p));
  EXPECT_FALSE(NoisyContains("avatar", "Avatar", p));
  EXPECT_FALSE(NoisyContains("Avatar 2", "Avatar", p));
}

TEST(MatchTest, SubstringMode) {
  const MatchPolicy p = MatchPolicy::Substring();
  EXPECT_TRUE(NoisyContains("the Ed Wood story", "Ed Wood", p));
  EXPECT_TRUE(NoisyContains("Ed Wood", "ed wood", p));
  EXPECT_FALSE(NoisyContains("Ed Woods-free zone", "Ed WoodX", p));
  EXPECT_FALSE(NoisyContains("short", "not contained", p));
}

TEST(MatchTest, EmptySampleNeverMatches) {
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy()}) {
    EXPECT_FALSE(NoisyContains("anything", "", p));
    EXPECT_EQ(MatchScore("anything", "", p), 0.0);
  }
}

TEST(MatchTest, TokenSubsetMode) {
  const MatchPolicy p = MatchPolicy::TokenSubset();
  EXPECT_TRUE(NoisyContains("The Crimson Harbor", "harbor crimson", p));
  EXPECT_TRUE(NoisyContains("The Crimson Harbor", "THE", p));
  EXPECT_FALSE(NoisyContains("The Crimson Harbor", "harbors", p));
}

TEST(MatchTest, FuzzyModeForgivesTypos) {
  const MatchPolicy p = MatchPolicy::Fuzzy(1);
  EXPECT_TRUE(NoisyContains("James Cameron", "james cameron", p));
  EXPECT_TRUE(NoisyContains("James Cameron", "james cameran", p));  // typo
  EXPECT_FALSE(NoisyContains("James Cameron", "james cmrn", p));
}

TEST(MatchTest, IgnoreCaseMode) {
  const MatchPolicy p = MatchPolicy::IgnoreCase();
  EXPECT_TRUE(NoisyContains("Avatar", "aVaTaR", p));
  EXPECT_FALSE(NoisyContains("Avatar 2", "Avatar", p));
  EXPECT_DOUBLE_EQ(MatchScore("Avatar", "AVATAR", p), 1.0);
}

// Parameterized property sweep: for every policy, every value noisily
// contains itself, containment is invariant under sample case folding, and
// scores stay in [0,1] consistent with containment.
class MatchPropertyTest
    : public ::testing::TestWithParam<MatchPolicy> {};

TEST_P(MatchPropertyTest, ReflexivityAndCaseStability) {
  const MatchPolicy& policy = GetParam();
  const char* values[] = {"Avatar",       "James Cameron",
                          "The Crimson Harbor",
                          "a long logline with Avatar inside",
                          "2009-12-10",   "x"};
  for (const char* v : values) {
    EXPECT_TRUE(NoisyContains(v, v, policy)) << v;
    EXPECT_GT(MatchScore(v, v, policy), 0.0) << v;
    // Case-folding the sample flips nothing except under kExact.
    if (policy.mode != MatchMode::kExact) {
      EXPECT_EQ(NoisyContains(v, v, policy),
                NoisyContains(v, ToLower(v), policy))
          << v;
    }
  }
}

TEST_P(MatchPropertyTest, ScoreBoundsRandomized) {
  const MatchPolicy& policy = GetParam();
  Rng rng(static_cast<uint64_t>(policy.mode) * 131 + 7);
  const char* words[] = {"avatar", "cameron", "harbor", "2009", "x", ""};
  for (int round = 0; round < 300; ++round) {
    std::string value, sample;
    for (int w = 0; w < 3; ++w) {
      value += words[rng.Index(6)];
      value += rng.Bernoulli(0.5) ? " " : "";
    }
    for (int w = 0; w < 2; ++w) {
      sample += words[rng.Index(6)];
      sample += rng.Bernoulli(0.3) ? " " : "";
    }
    const double score = MatchScore(value, sample, policy);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    EXPECT_EQ(score > 0.0, NoisyContains(value, sample, policy))
        << "value='" << value << "' sample='" << sample << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, MatchPropertyTest,
    ::testing::Values(MatchPolicy::Exact(), MatchPolicy::IgnoreCase(),
                      MatchPolicy::Substring(), MatchPolicy::TokenSubset(),
                      MatchPolicy::Fuzzy(1), MatchPolicy::Fuzzy(2)),
    [](const ::testing::TestParamInfo<MatchPolicy>& info) {
      return "mode" + std::to_string(static_cast<int>(info.param.mode)) +
             "_d" + std::to_string(info.param.max_edit_distance);
    });

// Property: stricter modes imply looser ones (on token-aligned samples).
TEST(MatchTest, ModeImplicationHierarchy) {
  const char* values[] = {"James Cameron", "The Crimson Harbor",
                          "story of the Crimson Harbor", "PG-13"};
  const char* samples[] = {"James Cameron", "Crimson", "crimson harbor",
                           "PG-13", "nothing here"};
  for (const char* v : values) {
    for (const char* s : samples) {
      if (NoisyContains(v, s, MatchPolicy::Exact())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::Substring()))
            << v << " / " << s;
      }
      if (NoisyContains(v, s, MatchPolicy::Substring())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::TokenSubset()))
            << v << " / " << s;
      }
      if (NoisyContains(v, s, MatchPolicy::TokenSubset())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::Fuzzy(1)))
            << v << " / " << s;
      }
    }
  }
}

// Property: scores are in [0,1] and positive iff contained.
TEST(MatchTest, ScoreConsistentWithContains) {
  const char* values[] = {"James Cameron", "a long logline about the Harbor",
                          ""};
  const char* samples[] = {"James Cameron", "Harbor", "zzz", "a"};
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy()}) {
    for (const char* v : values) {
      for (const char* s : samples) {
        const double score = MatchScore(v, s, p);
        EXPECT_GE(score, 0.0);
        EXPECT_LE(score, 1.0);
        EXPECT_EQ(score > 0.0, NoisyContains(v, s, p)) << v << "/" << s;
      }
    }
  }
}

TEST(MatchTest, ExactMatchScoresHigherThanBuried) {
  const MatchPolicy p = MatchPolicy::Substring();
  const double exact = MatchScore("Avatar", "Avatar", p);
  const double buried = MatchScore("a story about Avatar and more", "Avatar",
                                   p);
  EXPECT_GT(exact, buried);
  EXPECT_DOUBLE_EQ(exact, 1.0);
}

// --------------------------------------------------------- InvertedIndex --

storage::Relation MakeTitleRelation() {
  storage::Relation rel(
      storage::RelationSchema("movie", {StrAttr("title")}));
  rel.AppendUnchecked({S("Avatar")});
  rel.AppendUnchecked({S("The Ed Wood Story")});
  rel.AppendUnchecked({S("Ed Wood")});
  rel.AppendUnchecked({S("Harbor Nights")});
  rel.AppendUnchecked({storage::Value::Null()});
  rel.AppendUnchecked({S("...")});  // tokenizes to nothing
  return rel;
}

TEST(InvertedIndexTest, CandidatesAreSupersetOfMatches) {
  const storage::Relation rel = MakeTitleRelation();
  const char* samples[] = {"Ed Wood",  "wood",  "Avatar", "d Woo",
                           "harbor",   "zzz",   "...",    "Ed"};
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy(1)}) {
    const InvertedIndex index(rel, 0, p);
    const Vocabulary vocab(index);
    for (const char* sample : samples) {
      const std::vector<storage::RowId> candidates =
          vocab.CandidateRows(index, 0, sample);
      for (size_t r = 0; r < rel.num_rows(); ++r) {
        const storage::Value& v = rel.at(static_cast<storage::RowId>(r), 0);
        if (v.is_null()) continue;
        if (NoisyContains(v.ToDisplayString(), sample, p)) {
          EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                         static_cast<storage::RowId>(r)))
              << "sample '" << sample << "' should reach row " << r
              << " under mode " << static_cast<int>(p.mode);
        }
      }
    }
  }
}

TEST(InvertedIndexTest, SubstringMidTokenSampleIsFound) {
  // "d Woo" is a substring of "Ed Wood" that crosses a token boundary with
  // partial tokens on both sides — the classic hard case for token indexes.
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0, MatchPolicy::Substring());
  const auto candidates = Vocabulary(index).CandidateRows(index, 0, "d Woo");
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                 storage::RowId{2}));
}

TEST(InvertedIndexTest, CountsTokensAndRows) {
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0, MatchPolicy::Substring());
  EXPECT_EQ(index.num_indexed_rows(), 5u);  // null row skipped
  EXPECT_GT(index.num_tokens(), 4u);
  EXPECT_GT(index.index_bytes(), 0u);
}

// Random-relation builder shared with property_test (tests/test_util.h).
storage::Relation MakeRandomRelation(uint64_t seed, size_t num_rows) {
  return MakeRandomTextRelation(seed, num_rows);
}

// An index holds only its dictionary and postings, whatever the policy;
// the vocabulary holds the one candidate table the policy probes: none for
// the verbatim-token policies (and for fuzzy at d = 0 or beyond the
// deletion table's bound), the gram table for substring, the larger
// deletion table for fuzzy 1 <= d <= kMaxEdit.
TEST(VocabularyTest, BytesFollowPolicy) {
  const storage::Relation rel = MakeRandomRelation(42, 300);
  const size_t index_bytes =
      InvertedIndex(rel, 0, MatchPolicy::Exact()).index_bytes();
  const auto bytes = [&](const MatchPolicy& policy) {
    const InvertedIndex index(rel, 0, policy);
    EXPECT_EQ(index.index_bytes(), index_bytes);
    return Vocabulary(index).bytes();
  };
  const size_t exact = bytes(MatchPolicy::Exact());
  EXPECT_LT(exact, bytes(MatchPolicy::Substring()));
  EXPECT_LT(bytes(MatchPolicy::Substring()), bytes(MatchPolicy::Fuzzy(1)));
  EXPECT_EQ(bytes(MatchPolicy::Fuzzy(1)), bytes(MatchPolicy::Fuzzy(2)));
  for (const MatchPolicy& no_table :
       {MatchPolicy::IgnoreCase(), MatchPolicy::TokenSubset(),
        MatchPolicy::Fuzzy(0), MatchPolicy::Fuzzy(3)}) {
    EXPECT_EQ(bytes(no_table), exact);
  }
}

// Several indexes merge into one vocabulary: each distinct token once,
// filed under every slot whose dictionary holds it.
TEST(VocabularyTest, MergesDictionariesAndFilesSlots) {
  storage::Relation titles(
      storage::RelationSchema("movie", {StrAttr("title")}));
  titles.AppendUnchecked({S("Ed Wood")});
  titles.AppendUnchecked({S("Big Fish")});
  storage::Relation names(
      storage::RelationSchema("person", {StrAttr("name")}));
  names.AppendUnchecked({S("Tim Burton")});
  names.AppendUnchecked({S("Ed Harris")});
  const InvertedIndex a(titles, 0, MatchPolicy::Substring());
  const InvertedIndex b(names, 0, MatchPolicy::Substring());
  Vocabulary vocab(MatchPolicy::Substring(), 2);
  vocab.AddIndex(a, 0);
  vocab.AddIndex(b, 1);
  EXPECT_EQ(vocab.num_tokens(), 7u);  // "ed" is shared
  EXPECT_TRUE(vocab.Holds("ed", 0));
  EXPECT_TRUE(vocab.Holds("ed", 1));
  EXPECT_TRUE(vocab.Holds("fish", 0));
  EXPECT_FALSE(vocab.Holds("fish", 1));
  EXPECT_FALSE(vocab.Holds("zzz", 0));

  const auto slots_of = [&](std::string_view sample) {
    ResolvedSample resolved;
    vocab.Resolve(sample, &resolved, nullptr);
    std::vector<uint64_t> bits;
    vocab.CandidateSlots(resolved, &bits);
    EXPECT_EQ(bits.size(), 1u);
    return bits.empty() ? uint64_t{0} : bits[0];
  };
  EXPECT_EQ(slots_of("ed"), 0b11u);
  EXPECT_EQ(slots_of("Ed Wood"), 0b01u);   // "wood" only in titles
  EXPECT_EQ(slots_of("urto"), 0b10u);      // a substring of "burton"
  EXPECT_EQ(slots_of("wood tim"), 0u);     // no slot holds both
  EXPECT_EQ(slots_of("zzz"), 0u);
  EXPECT_EQ(slots_of("..."), 0b11u);       // punctuation: every slot

  // A pair filed later (a delta's new token) joins the slot list in order.
  vocab.Add("fish", 1);
  EXPECT_TRUE(vocab.Holds("fish", 1));
  EXPECT_EQ(vocab.num_tokens(), 7u);
  EXPECT_EQ(slots_of("fish"), 0b11u);
}

// One vocabulary shared by many indexes answers each index exactly as its
// own scan does, in every mode: the tenant-wide candidate lists are
// filtered to the slot, never widened or narrowed.
TEST(VocabularyTest, SharedVocabularyEqualsEachIndexScan) {
  const storage::Relation rels[] = {MakeRandomRelation(5, 120),
                                    MakeRandomRelation(6, 80),
                                    MakeRandomRelation(7, 40)};
  const char* samples[] = {"avatar", "rbor",  "d woo", "aqatar harbor",
                           "x",      "...",   "zzz",   "cameron story",
                           "wod",    "2009",  "av",    "crimson-potter"};
  for (const MatchPolicy& policy :
       {MatchPolicy::Exact(), MatchPolicy::IgnoreCase(),
        MatchPolicy::Substring(), MatchPolicy::TokenSubset(),
        MatchPolicy::Fuzzy(0), MatchPolicy::Fuzzy(1), MatchPolicy::Fuzzy(2),
        MatchPolicy::Fuzzy(3)}) {
    std::vector<InvertedIndex> indexes;
    Vocabulary vocab(policy, std::size(rels));
    for (const storage::Relation& rel : rels) {
      indexes.emplace_back(rel, 0, policy);
    }
    for (size_t i = 0; i < indexes.size(); ++i) {
      vocab.AddIndex(indexes[i], static_cast<uint32_t>(i));
    }
    for (const char* sample : samples) {
      ResolvedSample resolved;
      vocab.Resolve(sample, &resolved, nullptr);
      std::vector<uint64_t> slots;
      vocab.CandidateSlots(resolved, &slots);
      for (size_t i = 0; i < indexes.size(); ++i) {
        SCOPED_TRACE(StrFormat("mode=%d d=%zu slot=%zu sample='%s'",
                               static_cast<int>(policy.mode),
                               policy.max_edit_distance, i, sample));
        const std::vector<storage::RowId> scan =
            indexes[i].ScanCandidateRows(sample);
        EXPECT_EQ(vocab.CandidateRows(indexes[i], static_cast<uint32_t>(i),
                                      resolved, nullptr),
                  scan);
        // The slot filter only ever skips slots with no candidate.
        if ((slots[0] >> i & 1) == 0) {
          EXPECT_TRUE(scan.empty());
        }
      }
    }
  }
}

// The tentpole contract: for every match mode and edit bound, the
// accelerated candidate path returns exactly the linear-scan reference's
// rows, and both are supersets of the true noisy-containment matches.
TEST(InvertedIndexTest, AcceleratedEqualsScanReferenceAllModes) {
  const storage::Relation rel = MakeRandomRelation(42, 300);
  const MatchPolicy policies[] = {
      MatchPolicy::Exact(),       MatchPolicy::IgnoreCase(),
      MatchPolicy::Substring(),   MatchPolicy::TokenSubset(),
      MatchPolicy::Fuzzy(0),      MatchPolicy::Fuzzy(1),
      MatchPolicy::Fuzzy(2),      MatchPolicy::Fuzzy(3),  // beyond kMaxEdit
  };
  const char* samples[] = {
      "avatar",        "avatar harbor", "aqatar",  "cameron story",
      "rbor",          "d woo",         "...",     "!?",
      "zzz",           "x",             "av",      "aardvark night",
      "crimson-potter", "wod",          "2009",    "weaver mapping sample",
  };
  for (const MatchPolicy& policy : policies) {
    const InvertedIndex index(rel, 0, policy);
    const Vocabulary vocab(index);
    for (const char* sample : samples) {
      SCOPED_TRACE(StrFormat("mode=%d d=%zu sample='%s'",
                             static_cast<int>(policy.mode),
                             policy.max_edit_distance, sample));
      ProbeStats stats;
      const std::vector<storage::RowId> fast =
          vocab.CandidateRows(index, 0, sample, &stats);
      const std::vector<storage::RowId> reference =
          index.ScanCandidateRows(sample);
      EXPECT_EQ(fast, reference);
      // Sorted and duplicate-free.
      EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
      EXPECT_TRUE(std::adjacent_find(fast.begin(), fast.end()) == fast.end());
      // Superset of the true matches.
      for (size_t r = 0; r < rel.num_rows(); ++r) {
        const storage::Value& v = rel.at(static_cast<storage::RowId>(r), 0);
        if (v.is_null()) continue;
        if (NoisyContains(v.ToDisplayString(), sample, policy)) {
          EXPECT_TRUE(std::binary_search(fast.begin(), fast.end(),
                                         static_cast<storage::RowId>(r)))
              << "missing matching row " << r << " ('"
              << v.ToDisplayString() << "')";
        }
      }
    }
  }
}

TEST(InvertedIndexTest, RandomizedEquivalenceSweep) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const storage::Relation rel = MakeRandomRelation(seed, 150);
    // One index per policy the sweep draws: substring and fuzzy d = 0..2.
    const InvertedIndex substring(rel, 0, MatchPolicy::Substring());
    const InvertedIndex fuzzy[] = {
        InvertedIndex(rel, 0, MatchPolicy::Fuzzy(0)),
        InvertedIndex(rel, 0, MatchPolicy::Fuzzy(1)),
        InvertedIndex(rel, 0, MatchPolicy::Fuzzy(2)),
    };
    const Vocabulary substring_vocab(substring);
    const Vocabulary fuzzy_vocab[] = {Vocabulary(fuzzy[0]),
                                      Vocabulary(fuzzy[1]),
                                      Vocabulary(fuzzy[2])};
    Rng rng(seed * 977 + 5);
    for (int round = 0; round < 60; ++round) {
      // Sample a (possibly typo'd) fragment of a real value, so probes hit.
      std::string sample;
      const storage::RowId row =
          static_cast<storage::RowId>(rng.Index(rel.num_rows()));
      const storage::Value& v = rel.at(row, 0);
      if (!v.is_null() && !v.ToDisplayString().empty() &&
          rng.Bernoulli(0.8)) {
        const std::string text = v.ToDisplayString();
        const size_t start = rng.Index(text.size());
        const size_t len = 1 + rng.Index(text.size() - start);
        sample = text.substr(start, len);
      } else {
        sample = rng.Bernoulli(0.5) ? "zzz" : "..";
      }
      const size_t pick = rng.Bernoulli(0.5) ? 3 : rng.Index(3);
      const InvertedIndex& index = pick == 3 ? substring : fuzzy[pick];
      const Vocabulary& vocab = pick == 3 ? substring_vocab : fuzzy_vocab[pick];
      SCOPED_TRACE(StrFormat("seed=%llu mode=%d d=%zu sample='%s'",
                             static_cast<unsigned long long>(seed),
                             static_cast<int>(index.policy().mode),
                             index.policy().max_edit_distance,
                             sample.c_str()));
      EXPECT_EQ(vocab.CandidateRows(index, 0, sample),
                index.ScanCandidateRows(sample));
    }
  }
}

TEST(InvertedIndexTest, ProbeStatsCounters) {
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0, MatchPolicy::Substring());
  const Vocabulary vocab(index);

  ProbeStats stats;
  vocab.CandidateRows(index, 0, "wood", &stats);
  EXPECT_GT(stats.candidates_examined, 0u);
  EXPECT_EQ(stats.scan_fallbacks, 0u);
  EXPECT_EQ(stats.all_rows_fallbacks, 0u);

  // Punctuation-only sample: all-rows fallback, flagged for the memo guard.
  stats = {};
  const auto all = vocab.CandidateRows(index, 0, "...", &stats);
  EXPECT_EQ(stats.all_rows_fallbacks, 1u);
  EXPECT_EQ(all.size(), index.num_indexed_rows());

  // Edit bound beyond the deletion index: counted vocabulary-scan fallback.
  stats = {};
  const InvertedIndex beyond(rel, 0, MatchPolicy::Fuzzy(3));
  Vocabulary(beyond).CandidateRows(beyond, 0, "wod", &stats);
  EXPECT_EQ(stats.scan_fallbacks, 1u);
}

// ------------------------------------------------------------ ProbeCache --

RowSet MakeRows(std::vector<storage::RowId> rows) {
  return std::make_shared<const std::vector<storage::RowId>>(std::move(rows));
}

TEST(ProbeCacheTest, LookupRoundTripAndMiss) {
  ProbeCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(0, 0, 0, "harry"), nullptr);
  cache.Insert(0, 0, 0, "harry", MakeRows({1, 2}));
  const RowSet hit = cache.Lookup(0, 0, 0, "harry");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<storage::RowId>{1, 2}));
  // Any key component change misses.
  EXPECT_EQ(cache.Lookup(1, 0, 0, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 1, 0, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 1, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 0, "harr"), nullptr);
}

TEST(ProbeCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each entry costs 2 (key) + 80 (10 rows) + 96 (overhead) = 178 bytes;
  // the budget fits four of them (712 <= 760) and 178 <= 760/4, so a fifth
  // insert must evict the least recently used.
  ProbeCache cache(760);
  cache.Insert(0, 0, 0, "aa", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 0, "bb", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 0, "cc", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 0, "dd", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  ASSERT_EQ(cache.stats().entries, 4u);
  // Touch "aa" so "bb" becomes the LRU victim.
  EXPECT_NE(cache.Lookup(0, 0, 0, "aa"), nullptr);
  cache.Insert(0, 0, 0, "ee", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(cache.Lookup(0, 0, 0, "bb"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(0, 0, 0, "aa"), nullptr);  // survived (recent)
  EXPECT_NE(cache.Lookup(0, 0, 0, "ee"), nullptr);
  const ProbeCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_used, 760u);
}

TEST(ProbeCacheTest, HandleSurvivesEviction) {
  ProbeCache cache(760);
  cache.Insert(0, 0, 0, "aa", MakeRows({7, 8}));
  const RowSet handle = cache.Lookup(0, 0, 0, "aa");
  ASSERT_NE(handle, nullptr);
  for (int i = 0; i < 50; ++i) {  // flush "aa" out of the cache
    cache.Insert(0, 0, 0, "key" + std::to_string(i),
                 MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  }
  EXPECT_EQ(cache.Lookup(0, 0, 0, "aa"), nullptr);
  EXPECT_EQ(*handle, (std::vector<storage::RowId>{7, 8}));  // still valid
}

TEST(ProbeCacheTest, RejectsOversizedEntries) {
  ProbeCache cache(1024);
  // 512 rows * 8 bytes is far beyond budget/4.
  cache.Insert(0, 0, 0, "big",
               MakeRows(std::vector<storage::RowId>(512, 1)));
  EXPECT_EQ(cache.Lookup(0, 0, 0, "big"), nullptr);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ProbeCacheTest, ZeroBudgetDisablesCaching) {
  ProbeCache cache(0);
  cache.Insert(0, 0, 0, "aa", MakeRows({1}));
  EXPECT_EQ(cache.Lookup(0, 0, 0, "aa"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// Readers race one inserter over overlapping keys under a budget that
// holds about a sixth of them, so entries are evicted while being read.
// Every hit must be exactly the rows inserted under its key (a borrowed
// string_view lookup must never match a different entry). Labelled tsan.
TEST(ProbeCacheTest, ConcurrentLookupsDuringEvictingInsertsReturnInsertedRows) {
  constexpr int kKeys = 64;
  constexpr int kReaders = 4;
  constexpr int kRounds = 200;
  const auto key = [](int k) { return "sample-" + std::to_string(k); };
  const auto rows = [](int k) {
    return std::vector<storage::RowId>{k, k + 1, k + 2, k * 7};
  };
  ProbeCache cache(1800);
  const auto insert = [&](int k) {
    cache.Insert(0, 0, 0, key(k), MakeRows(rows(k)));
  };
  for (int k = 0; k < kKeys; ++k) insert(k);  // readers hit from the start
  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(900 + static_cast<uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const int k = static_cast<int>(rng.Index(kKeys));
        const std::string sample = key(k);
        if (const RowSet hit = cache.Lookup(0, 0, 0, sample)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (*hit != rows(k)) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Keep inserting until the readers have hit a good many times while the
  // inserts ran (a scheduler may park the readers through a short burst),
  // within a cap.
  for (int round = 0;
       round < kRounds || (hits.load() < 1000 && round < 100 * kRounds);
       ++round) {
    for (int k = 0; k < kKeys; ++k) insert((k * 5 + round) % kKeys);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  const ProbeCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, 1800u);
}

// -------------------------------------------------------- FullTextEngine --

TEST(FullTextEngineTest, FindOccurrencesLikePaperExample) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());

  const auto occurrences = engine.FindOccurrences("James Cameron");
  ASSERT_EQ(occurrences.size(), 1u);
  EXPECT_EQ(engine.AttributeName(occurrences[0].attr), "person.name");
  EXPECT_EQ(*occurrences[0].rows, (std::vector<storage::RowId>{0}));

  EXPECT_TRUE(engine.FindOccurrences("nonexistent xyz").empty());
}

TEST(FullTextEngineTest, MatchingRowsCachedAndVerified) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  ProbeCounters counters;
  const RowSet rows1 = engine.MatchingRows(title, "Harry", &counters);
  const RowSet rows2 = engine.MatchingRows(title, "Harry", &counters);
  EXPECT_EQ(rows1.get(), rows2.get());  // memoized: same shared row set
  EXPECT_EQ(*rows1, (std::vector<storage::RowId>{1}));
  const ProbeStats totals = counters.Snapshot();
  EXPECT_EQ(totals.probes, 2u);
  EXPECT_EQ(totals.memo_hits, 1u);
  EXPECT_EQ(totals.memo_misses, 1u);
}

TEST(FullTextEngineTest, NonIndexedAttributeYieldsNothing) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  // movie.mid is an int64 key: not indexed.
  const AttributeRef mid{db.FindRelation("movie"), 0};
  EXPECT_TRUE(engine.MatchingRows(mid, "0")->empty());
  EXPECT_EQ(engine.num_indexed_attributes(), 2u);  // movie.title, person.name
}

TEST(FullTextEngineTest, PunctuationOnlySampleNeverMemoized) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  // A punctuation-only sample degrades to the all-rows candidate fallback;
  // its result must never enter the probe memo (satellite guard: degenerate
  // probes must not flush the working set).
  ProbeCounters counters;
  EXPECT_TRUE(engine.MatchingRows(title, "...", &counters)->empty());
  EXPECT_TRUE(engine.MatchingRows(title, "...", &counters)->empty());
  const ProbeStats totals = counters.Snapshot();
  EXPECT_EQ(totals.probes, 2u);
  EXPECT_EQ(totals.memo_hits, 0u);  // second probe recomputed, not cached
  EXPECT_EQ(totals.memo_misses, 2u);
  EXPECT_EQ(totals.all_rows_fallbacks, 2u);
  EXPECT_EQ(engine.probe_cache_stats().entries, 0u);
}

TEST(FullTextEngineTest, CountersFlowToCallerAccumulator) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  ProbeCounters counters;
  engine.MatchingRows(title, "Harry", &counters);
  engine.MatchingRows(title, "Harry", &counters);
  const ProbeStats stats = counters.Snapshot();
  EXPECT_EQ(stats.probes, 2u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_GT(stats.candidates_examined, 0u);
}

TEST(FullTextEngineTest, DisabledCacheStillCorrect) {
  storage::Database db = MakeFigure2Db();
  EngineOptions options;
  options.probe_cache_bytes = 0;
  const FullTextEngine engine(&db, MatchPolicy::Substring(), options);
  const AttributeRef title{db.FindRelation("movie"), 1};
  ProbeCounters counters;
  EXPECT_EQ(*engine.MatchingRows(title, "Harry", &counters),
            (std::vector<storage::RowId>{1}));
  EXPECT_EQ(*engine.MatchingRows(title, "Harry", &counters),
            (std::vector<storage::RowId>{1}));
  EXPECT_EQ(counters.Snapshot().memo_hits, 0u);
}

TEST(FullTextEngineTest, ReportsIndexBytes) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  EXPECT_GT(engine.index_bytes(), 0u);
}

TEST(FullTextEngineTest, RowContainsAndScore) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  EXPECT_TRUE(engine.RowContains(title, 0, "Avatar"));
  EXPECT_FALSE(engine.RowContains(title, 1, "Avatar"));
  EXPECT_DOUBLE_EQ(engine.RowMatchScore(title, 0, "Avatar"), 1.0);
  EXPECT_EQ(engine.RowMatchScore(title, 1, "Avatar"), 0.0);
}

// ----------------------------------------------------------- Numeric ⊙ --

TEST(NumericTest, ParseNumeric) {
  EXPECT_EQ(ParseNumeric("42"), 42.0);
  EXPECT_EQ(ParseNumeric("-3.5"), -3.5);
  EXPECT_EQ(ParseNumeric("1e3"), 1000.0);
  EXPECT_FALSE(ParseNumeric("").has_value());
  EXPECT_FALSE(ParseNumeric("42a").has_value());
  EXPECT_FALSE(ParseNumeric("Avatar").has_value());
  EXPECT_FALSE(ParseNumeric("inf").has_value());
}

TEST(NumericTest, NumericEquals) {
  using storage::Value;
  EXPECT_TRUE(NumericEquals(Value(int64_t{42}), 42.0));
  EXPECT_FALSE(NumericEquals(Value(int64_t{42}), 42.5));
  EXPECT_TRUE(NumericEquals(Value(2.5), 2.5));
  EXPECT_TRUE(NumericEquals(Value(1.0 / 3.0), 1.0 / 3.0));
  EXPECT_FALSE(NumericEquals(Value(2.5), 2.6));
  EXPECT_FALSE(NumericEquals(Value("42"), 42.0));  // strings never match
  EXPECT_FALSE(NumericEquals(Value::Null(), 0.0));
}

namespace {

// A payroll database with *searchable* numeric columns.
storage::Database MakePayrollDb() {
  using storage::AttributeSchema;
  using storage::Database;
  using storage::RelationSchema;
  using storage::ValueType;
  using ::mweaver::testing::AddRow;
  using ::mweaver::testing::I;
  using ::mweaver::testing::IdAttr;
  using ::mweaver::testing::S;
  using ::mweaver::testing::StrAttr;

  Database db("payroll");
  db.AddRelation(RelationSchema(
                     "employee",
                     {IdAttr("eid"), StrAttr("name"),
                      AttributeSchema{"salary", ValueType::kDouble, true},
                      AttributeSchema{"level", ValueType::kInt64, true}}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("dept", {IdAttr("did"), StrAttr("dname")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("worksin", {IdAttr("eid"), IdAttr("did")}))
      .ValueOrDie();
  db.AddForeignKey("worksin", "eid", "employee", "eid").ValueOrDie();
  db.AddForeignKey("worksin", "did", "dept", "did").ValueOrDie();
  AddRow(&db, "employee",
         {I(0), S("Ada"), storage::Value(95000.0), I(7)});
  AddRow(&db, "employee",
         {I(1), S("Grace"), storage::Value(120000.5), I(9)});
  AddRow(&db, "dept", {I(0), S("Compilers")});
  AddRow(&db, "dept", {I(1), S("Systems")});
  AddRow(&db, "worksin", {I(0), I(0)});
  AddRow(&db, "worksin", {I(1), I(1)});
  return db;
}

}  // namespace

TEST(NumericTest, EngineMatchesNumericSamplesWhenEnabled) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db,
                              MatchPolicy::Substring().WithNumeric());
  EXPECT_EQ(engine.num_numeric_attributes(), 2u);

  const auto occurrences = engine.FindOccurrences("95000");
  ASSERT_EQ(occurrences.size(), 1u);
  EXPECT_EQ(engine.AttributeName(occurrences[0].attr), "employee.salary");
  EXPECT_EQ(*occurrences[0].rows, (std::vector<storage::RowId>{0}));

  // Integer-typed column.
  const auto levels = engine.FindOccurrences("9");
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(engine.AttributeName(levels[0].attr), "employee.level");

  // Non-numeric samples never touch numeric columns.
  EXPECT_EQ(engine.FindOccurrences("Ada").size(), 1u);
}

TEST(NumericTest, NumericMatchingDisabledByDefault) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  EXPECT_TRUE(engine.FindOccurrences("95000").empty());
}

TEST(NumericTest, RowContainsAndScoreOnNumericAttr) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db,
                              MatchPolicy::Substring().WithNumeric());
  const AttributeRef salary{db.FindRelation("employee"), 2};
  EXPECT_TRUE(engine.RowContains(salary, 0, "95000"));
  EXPECT_FALSE(engine.RowContains(salary, 1, "95000"));
  EXPECT_DOUBLE_EQ(engine.RowMatchScore(salary, 0, "95000"), 1.0);
  EXPECT_EQ(engine.RowMatchScore(salary, 0, "95001"), 0.0);
}

// ------------------------------------------------------- ValueDictionary --

TEST(ValueDictionaryTest, SuggestsByCaseInsensitivePrefix) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_EQ(dict.Suggest("ja"), (std::vector<std::string>{"James Cameron"}));
  EXPECT_EQ(dict.Suggest("HARRY"),
            (std::vector<std::string>{"Harry Potter"}));
  EXPECT_TRUE(dict.Suggest("zzz").empty());
}

TEST(ValueDictionaryTest, LimitAndEmptyPrefix) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_EQ(dict.Suggest("", 3).size(), 3u);
  EXPECT_EQ(dict.size(), 8u);  // 3 titles + 5 names, all distinct
}

TEST(ValueDictionaryTest, ContainsVerbatimValues) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_TRUE(dict.Contains("Avatar"));
  EXPECT_FALSE(dict.Contains("avatar"));  // verbatim, case-sensitive
  EXPECT_FALSE(dict.Contains("Avatar 2"));
}

TEST(ValueDictionaryTest, SkipsNonSearchableColumns) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  // Integer key columns are not suggested.
  EXPECT_TRUE(dict.Suggest("0").empty());
}

// ------------------------------------------------- BoundedEditDistance --

// Plain full-matrix Levenshtein, the textbook reference.
size_t FullEditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t BoundedReference(std::string_view a, std::string_view b, size_t max) {
  return std::min(FullEditDistance(a, b), max + 1);
}

TEST(BoundedEditDistanceTest, MatchesReferenceOnRandomStrings) {
  std::mt19937 rng(48);
  const std::string alphabet = "abcd";  // small alphabet: frequent matches
  for (int round = 0; round < 300; ++round) {
    // Lengths cross the 64-char Myers/DP split in both operands.
    const size_t la = rng() % 100;
    const size_t lb = rng() % 100;
    std::string a(la, 'a');
    std::string b(lb, 'a');
    for (char& c : a) c = alphabet[rng() % alphabet.size()];
    for (char& c : b) c = alphabet[rng() % alphabet.size()];
    for (size_t max = 0; max <= 3; ++max) {
      EXPECT_EQ(BoundedEditDistance(a, b, max), BoundedReference(a, b, max))
          << "a=" << a << " b=" << b << " max=" << max;
    }
  }
}

TEST(BoundedEditDistanceTest, EdgeCases) {
  EXPECT_EQ(BoundedEditDistance("", "", 2), 0u);
  EXPECT_EQ(BoundedEditDistance("", "ab", 2), 2u);
  EXPECT_EQ(BoundedEditDistance("ab", "", 1), 2u);  // max + 1: exceeded
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 0), 0u);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", 0), 1u);  // max + 1
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  // Exactly 64 and 65 chars: the Myers word boundary.
  const std::string s64(64, 'x');
  const std::string s65(65, 'x');
  EXPECT_EQ(BoundedEditDistance(s64, s64, 2), 0u);
  EXPECT_EQ(BoundedEditDistance(s64, s65, 2), 1u);
  std::string mutated = s64;
  mutated[10] = 'y';
  mutated[50] = 'z';
  EXPECT_EQ(BoundedEditDistance(s64, mutated, 3), 2u);
  // High-bit (non-ASCII) bytes must index the Peq table safely.
  const std::string hi1 = "caf\xc3\xa9";
  const std::string hi2 = "cafe";
  EXPECT_EQ(BoundedEditDistance(hi1, hi2, 3),
            BoundedReference(hi1, hi2, 3));
}

}  // namespace
}  // namespace mweaver::text
