#include "text/fulltext_engine.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "text/numeric.h"

namespace mweaver::text {

namespace {

// Per-thread locate scratch: FindOccurrences' resolution and candidate
// slots, and a lone MatchingRows miss's resolution (never both at once:
// FindOccurrences probes with its own resolution).
struct LocateScratch {
  ResolvedSample resolved;
  std::vector<uint64_t> slots;
};

LocateScratch& LocalLocateScratch() {
  thread_local LocateScratch scratch;
  return scratch;
}

// Calls `fn` with a cell's text: a string cell (every indexed one) in
// place, any other through its display-string copy.
template <typename Fn>
auto WithCellText(const storage::Value& v, Fn&& fn) {
  if (v.type() == storage::ValueType::kString) {
    return fn(std::string_view(v.AsString()));
  }
  return fn(std::string_view(v.ToDisplayString()));
}

}  // namespace

void FullTextEngine::InitMetadata(const storage::Database* db,
                                  MatchPolicy policy,
                                  const EngineOptions& options) {
  MW_CHECK(db != nullptr);
  db_ = db;
  policy_ = policy;
  probe_cache_ = std::make_shared<ProbeCache>(options.probe_cache_bytes);
  rel_versions_.assign(db->num_relations(), 0);
  for (size_t r = 0; r < db->num_relations(); ++r) {
    const storage::RelationId rel_id = static_cast<storage::RelationId>(r);
    const storage::Relation& rel = db->relation(rel_id);
    for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
      const storage::AttributeSchema& attr_schema =
          rel.schema().attributes()[a];
      if (!attr_schema.searchable) continue;
      const AttributeRef ref{rel_id, static_cast<storage::AttributeId>(a)};
      if (attr_schema.type == storage::ValueType::kString) {
        indexed_attrs_.push_back(ref);
      } else if (attr_schema.type == storage::ValueType::kInt64 ||
                 attr_schema.type == storage::ValueType::kDouble) {
        numeric_attrs_.push_back(ref);
      }
    }
  }
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    slot_of_attr_[indexed_attrs_[i]] = static_cast<int>(i);
  }
  for (size_t i = 0; i < numeric_attrs_.size(); ++i) {
    slot_of_attr_[numeric_attrs_[i]] =
        static_cast<int>(indexed_attrs_.size() + i);
  }
}

void FullTextEngine::BuildShards(uint32_t shard_count,
                                 const FullTextEngine* previous,
                                 const std::vector<bool>& reuse,
                                 size_t* shards_rebuilt) {
  const uint32_t n = std::max<uint32_t>(1, shard_count);
  shards_.assign(n, {});
  mutable_shards_.assign(n, false);
  std::vector<uint32_t> to_build;
  for (uint32_t s = 0; s < n; ++s) {
    if (previous != nullptr && s < reuse.size() && reuse[s]) {
      MW_CHECK(previous->shard_count() == n);
      shards_[s] = previous->shards_[s];  // unchanged content: share it
    } else {
      shards_[s].resize(indexed_attrs_.size());
      to_build.push_back(s);
    }
  }
  // Every (shard, attribute) index build is independent; fan them out on
  // the shared pool.
  const size_t attrs = indexed_attrs_.size();
  const size_t threads = ThreadPool::Shared().num_threads();
  ParallelFor(to_build.size() * attrs, threads, [&](size_t job) {
    // Chaos site: latency spikes during the parallel index build (builds
    // cannot fail, so only kDelay is meaningful here).
    (void)MW_FAILPOINT_FIRE("text.index.build");
    const uint32_t s = to_build[job / attrs];
    const AttributeRef& ref = indexed_attrs_[job % attrs];
    shards_[s][job % attrs] = std::make_shared<InvertedIndex>(
        db_->relation(ref.relation), ref.attribute, policy_, s, n);
  });
  if (shards_rebuilt != nullptr) *shards_rebuilt = to_build.size();
  // Merge the dictionaries slot by slot, so every token's slot list is
  // appended in order. Reused shards are merged too: vocabulary ids are
  // this engine's own.
  vocab_ = std::make_shared<Vocabulary>(policy_, attrs);
  for (size_t i = 0; i < attrs; ++i) {
    for (const auto& indexes : shards_) {
      vocab_->AddIndex(*indexes[i], static_cast<uint32_t>(i));
    }
  }
}

FullTextEngine::FullTextEngine(const storage::Database* db, MatchPolicy policy,
                               uint32_t shard_count, EngineOptions options) {
  InitMetadata(db, policy, options);
  BuildShards(shard_count, /*previous=*/nullptr, {}, nullptr);
}

std::unique_ptr<FullTextEngine> FullTextEngine::Build(
    const storage::Database* db, MatchPolicy policy, uint32_t shard_count,
    const EngineOptions& options, const FullTextEngine* previous,
    const std::vector<bool>& reuse, size_t* shards_rebuilt) {
  auto engine = std::unique_ptr<FullTextEngine>(new FullTextEngine());
  engine->InitMetadata(db, policy, options);
  engine->BuildShards(shard_count, previous, reuse, shards_rebuilt);
  return engine;
}

std::unique_ptr<FullTextEngine> FullTextEngine::CloneForDelta(
    const storage::Database* db,
    const std::vector<storage::RelationId>& touched,
    const std::vector<uint32_t>& touched_shards,
    uint64_t new_version) const {
  MW_CHECK(db != nullptr);
  auto delta = std::unique_ptr<FullTextEngine>(new FullTextEngine());
  delta->db_ = db;
  delta->policy_ = policy_;
  delta->indexed_attrs_ = indexed_attrs_;
  delta->numeric_attrs_ = numeric_attrs_;
  delta->slot_of_attr_ = slot_of_attr_;
  delta->rel_versions_ = rel_versions_;
  delta->probe_cache_ = probe_cache_;  // shared; versions fence staleness
  delta->vocab_ = vocab_;              // shared until FileToken copies it
  delta->shards_ = shards_;
  delta->mutable_shards_.assign(shards_.size(), false);
  for (const uint32_t s : touched_shards) {
    MW_CHECK(s < shards_.size());
    delta->mutable_shards_[s] = true;
    std::vector<std::shared_ptr<InvertedIndex>>& indexes = delta->shards_[s];
    for (size_t i = 0; i < indexes.size(); ++i) {
      const storage::RelationId rel = indexed_attrs_[i].relation;
      if (std::find(touched.begin(), touched.end(), rel) != touched.end()) {
        indexes[i] = std::make_shared<InvertedIndex>(*indexes[i]);
      }
    }
  }
  for (storage::RelationId rel : touched) {
    delta->rel_versions_[static_cast<size_t>(rel)] = new_version;
  }
  return delta;
}

std::vector<std::shared_ptr<InvertedIndex>>& FullTextEngine::MutableShardOf(
    storage::RowId row) {
  const uint32_t s = ShardOfRow(row, shards_.size());
  MW_CHECK(mutable_shards_[s])
      << "row " << row << " belongs to shard " << s
      << ", which this engine did not delta-clone";
  return shards_[s];
}

void FullTextEngine::ApplyRowInsert(storage::RelationId relation,
                                    storage::RowId row) {
  std::vector<std::shared_ptr<InvertedIndex>>& indexes = MutableShardOf(row);
  const storage::Relation& rel = db_->relation(relation);
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    InvertedIndex& index = *indexes[i];
    const size_t known = index.num_tokens();
    index.AddRow(row, rel.at(row, indexed_attrs_[i].attribute));
    // Only a token new to this index can be a (token, slot) pair new to
    // the vocabulary: it already holds every one the index had.
    for (size_t t = known; t < index.num_tokens(); ++t) {
      FileToken(index.tokens()[t], static_cast<uint32_t>(i));
    }
  }
}

void FullTextEngine::FileToken(const std::string& token, uint32_t slot) {
  if (vocab_->Holds(token, slot)) return;
  if (!vocab_owned_) {
    // The base engine (and every engine sharing it) serves concurrently
    // from the shared vocabulary: copy it once before the first change.
    vocab_ = std::make_shared<Vocabulary>(*vocab_);
    vocab_owned_ = true;
  }
  vocab_->Add(token, slot);
}

void FullTextEngine::ApplyRowDelete(storage::RelationId relation,
                                    storage::RowId row) {
  std::vector<std::shared_ptr<InvertedIndex>>& indexes = MutableShardOf(row);
  const storage::Relation& rel = db_->relation(relation);
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    indexes[i]->RemoveRow(row, rel.at(row, indexed_attrs_[i].attribute));
  }
}

size_t FullTextEngine::MaxRemovedRows(storage::RelationId relation) const {
  size_t max_removed = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!mutable_shards_[s]) continue;
    for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
      if (indexed_attrs_[i].relation != relation) continue;
      max_removed = std::max(max_removed, shards_[s][i]->num_removed_rows());
    }
  }
  return max_removed;
}

void FullTextEngine::CompactRelationIndexes(storage::RelationId relation) {
  const storage::Relation& rel = db_->relation(relation);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!mutable_shards_[s]) continue;
    for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
      if (indexed_attrs_[i].relation != relation) continue;
      shards_[s][i]->Compact(rel, indexed_attrs_[i].attribute);
    }
  }
}

std::vector<Occurrence> FullTextEngine::FindOccurrences(
    const std::string& sample, ProbeCounters* counters) const {
  std::vector<Occurrence> occurrences;
  const auto keep = [&](const AttributeRef& attr, RowSet rows) {
    if (!rows->empty()) {
      occurrences.push_back(Occurrence{attr, std::move(rows)});
    }
  };
  // Resolve once; a slot that lacks a match for some sample token cannot
  // hold the sample, so it is neither probed nor memoized.
  LocateScratch& scratch = LocalLocateScratch();
  ProbeStats resolution;
  vocab_->Resolve(sample, &scratch.resolved, &resolution);
  if (counters != nullptr) counters->Record(resolution);
  vocab_->CandidateSlots(scratch.resolved, &scratch.slots);
  size_t candidates = 0;
  for (const uint64_t bits : scratch.slots) candidates += std::popcount(bits);
  const bool numeric =
      policy_.match_numeric && ParseNumeric(sample).has_value();
  occurrences.reserve(candidates + (numeric ? numeric_attrs_.size() : 0));
  for (size_t w = 0; w < scratch.slots.size(); ++w) {
    for (uint64_t bits = scratch.slots[w]; bits != 0; bits &= bits - 1) {
      const int slot = static_cast<int>(w * 64 + std::countr_zero(bits));
      const AttributeRef& attr = indexed_attrs_[static_cast<size_t>(slot)];
      keep(attr, Probe(attr, slot, sample, &scratch.resolved, counters));
    }
  }
  if (numeric) {
    for (size_t i = 0; i < numeric_attrs_.size(); ++i) {
      const AttributeRef& attr = numeric_attrs_[i];
      keep(attr, Probe(attr, static_cast<int>(indexed_attrs_.size() + i),
                       sample, nullptr, counters));
    }
  }
  return occurrences;
}

bool FullTextEngine::IsNumericAttr(const AttributeRef& attr) const {
  const storage::ValueType type = db_->relation(attr.relation)
                                      .schema()
                                      .attribute(attr.attribute)
                                      .type;
  return type == storage::ValueType::kInt64 ||
         type == storage::ValueType::kDouble;
}

std::vector<storage::RowId> FullTextEngine::NumericMatches(
    const AttributeRef& attr, double sample) const {
  std::vector<storage::RowId> rows;
  const storage::Relation& rel = db_->relation(attr.relation);
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    if (rel.is_deleted(static_cast<storage::RowId>(r))) continue;
    if (NumericEquals(rel.at(static_cast<storage::RowId>(r), attr.attribute),
                      sample)) {
      rows.push_back(static_cast<storage::RowId>(r));
    }
  }
  return rows;
}

RowSet FullTextEngine::MatchingRows(const AttributeRef& attr,
                                    const std::string& sample,
                                    ProbeCounters* counters) const {
  return Probe(attr, AttrSlot(attr), sample, nullptr, counters);
}

RowSet FullTextEngine::Probe(const AttributeRef& attr, int slot,
                             const std::string& sample,
                             const ResolvedSample* resolved,
                             ProbeCounters* counters) const {
  ProbeStats stats;
  stats.probes = 1;
  const auto record = [&] {
    if (counters != nullptr) counters->Record(stats);
  };
  const uint64_t version = relation_version(attr.relation);
  if (RowSet cached = probe_cache_->Lookup(attr.relation, attr.attribute,
                                           version, sample)) {
    stats.memo_hits = 1;
    record();
    return cached;
  }
  stats.memo_misses = 1;

  // Compute outside any lock (reads immutable indexes and relation data); a
  // racing thread may compute and insert the same entry, which is harmless.
  std::vector<storage::RowId> verified;
  if (slot < 0 || static_cast<size_t>(slot) >= indexed_attrs_.size()) {
    // A slot past the indexed ones is a numeric attribute, matched by a
    // (memoized) verification scan; an unsearchable one matches nothing.
    const std::optional<double> numeric =
        (slot >= 0 && policy_.match_numeric) ? ParseNumeric(sample)
                                             : std::nullopt;
    if (!numeric.has_value()) {
      record();
      return EmptyRowSet();
    }
    verified = NumericMatches(attr, *numeric);
  } else {
    if (resolved == nullptr) {
      ResolvedSample& own = LocalLocateScratch().resolved;
      vocab_->Resolve(sample, &own, &stats);
      resolved = &own;
    }
    verified = VerifiedRows(attr, static_cast<uint32_t>(slot), *resolved,
                            &stats);
  }
  record();

  RowSet result = verified.empty()
                      ? EmptyRowSet()
                      : std::make_shared<const std::vector<storage::RowId>>(
                            std::move(verified));
  // Punctuation-only samples degrade to an all-rows candidate set; caching
  // the (column-sized) verified result would let degenerate probes flush
  // the memo's useful working set.
  if (stats.all_rows_fallbacks == 0) {
    probe_cache_->Insert(attr.relation, attr.attribute, version, sample,
                         result);
  }
  return result;
}

std::vector<storage::RowId> FullTextEngine::VerifiedRows(
    const AttributeRef& attr, uint32_t slot, const ResolvedSample& resolved,
    ProbeStats* stats) const {
  const storage::Relation& rel = db_->relation(attr.relation);
  const std::string_view sample = resolved.sample;
  // Each shard's verified rows are sorted and disjoint from every other
  // shard's (the shard hash partitions rows), so appending them in shard
  // order and sorting once when two or more shards contributed yields
  // exactly the one-shard result.
  std::vector<storage::RowId> verified;
  size_t runs = 0;
  for (const auto& indexes : shards_) {
    const size_t before = verified.size();
    for (storage::RowId row :
         vocab_->CandidateRows(*indexes[slot], slot, resolved, stats)) {
      if (WithCellText(rel.at(row, attr.attribute), [&](std::string_view v) {
            return NoisyContains(v, sample, policy_);
          })) {
        verified.push_back(row);
      }
    }
    if (verified.size() > before) ++runs;
  }
  if (runs > 1) std::sort(verified.begin(), verified.end());
  // Every shard sees the same punctuation-only sample: one fallback per
  // probe, however many shards ran it.
  stats->all_rows_fallbacks = std::min<uint64_t>(stats->all_rows_fallbacks, 1);
  return verified;
}

bool FullTextEngine::RowContains(const AttributeRef& attr, storage::RowId row,
                                 const std::string& sample) const {
  if (db_->relation(attr.relation).is_deleted(row)) return false;
  if (policy_.match_numeric && IsNumericAttr(attr)) {
    const std::optional<double> numeric = ParseNumeric(sample);
    return numeric.has_value() &&
           NumericEquals(db_->relation(attr.relation).at(row, attr.attribute),
                         *numeric);
  }
  return WithCellText(
      db_->relation(attr.relation).at(row, attr.attribute),
      [&](std::string_view v) { return NoisyContains(v, sample, policy_); });
}

double FullTextEngine::RowMatchScore(const AttributeRef& attr,
                                     storage::RowId row,
                                     const std::string& sample) const {
  if (db_->relation(attr.relation).is_deleted(row)) return 0.0;
  if (policy_.match_numeric && IsNumericAttr(attr)) {
    return RowContains(attr, row, sample) ? 1.0 : 0.0;
  }
  return WithCellText(
      db_->relation(attr.relation).at(row, attr.attribute),
      [&](std::string_view v) { return MatchScore(v, sample, policy_); });
}

std::string FullTextEngine::AttributeName(const AttributeRef& attr) const {
  const storage::Relation& rel = db_->relation(attr.relation);
  return rel.name() + "." + rel.schema().attribute(attr.attribute).name;
}

size_t FullTextEngine::index_bytes() const {
  size_t bytes = vocab_->bytes();
  for (const auto& indexes : shards_) {
    for (const auto& index : indexes) bytes += index->index_bytes();
  }
  return bytes;
}

}  // namespace mweaver::text
