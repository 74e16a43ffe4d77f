#include "text/fulltext_engine.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/failpoint.h"
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
auto WithCellText(storage::ValueView v, Fn&& fn) {
  if (v.type() == storage::ValueType::kString) {
    return fn(std::string_view(v.AsString()));
  }
  return fn(std::string_view(v.ToDisplayString()));
}

}  // namespace

FullTextEngine::FullTextEngine(const storage::Database* db, MatchPolicy policy,
                               EngineOptions options) {
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

  // Every attribute's index build is independent; fan them out on the
  // shared pool.
  const size_t attrs = indexed_attrs_.size();
  indexes_.resize(attrs);
  ParallelFor(attrs, ThreadPool::Shared().num_threads(), [&](size_t i) {
    // Chaos site: latency spikes during the parallel index build (builds
    // cannot fail, so only kDelay is meaningful here).
    (void)MW_FAILPOINT_FIRE("text.index.build");
    const AttributeRef& ref = indexed_attrs_[i];
    indexes_[i] = std::make_shared<InvertedIndex>(
        db_->relation(ref.relation), ref.attribute, policy_);
  });
  // Merge the dictionaries slot by slot, so every token's slot list is
  // appended in order.
  vocab_ = std::make_shared<Vocabulary>(policy_, attrs);
  for (size_t i = 0; i < attrs; ++i) {
    vocab_->AddIndex(*indexes_[i], static_cast<uint32_t>(i));
  }
}

std::unique_ptr<FullTextEngine> FullTextEngine::CloneForDelta(
    const storage::Database* db,
    const std::vector<storage::RelationId>& touched,
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
  delta->indexes_ = indexes_;
  delta->delta_ = true;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const storage::RelationId rel = indexed_attrs_[i].relation;
    if (std::find(touched.begin(), touched.end(), rel) != touched.end()) {
      delta->indexes_[i] = std::make_shared<InvertedIndex>(*indexes_[i]);
    }
  }
  for (storage::RelationId rel : touched) {
    delta->rel_versions_[static_cast<size_t>(rel)] = new_version;
  }
  return delta;
}

void FullTextEngine::CheckDelta() const {
  MW_CHECK(delta_) << "row operations need an engine CloneForDelta made; "
                      "this one may be serving";
}

void FullTextEngine::ApplyRowInsert(storage::RelationId relation,
                                    storage::RowId row) {
  CheckDelta();
  const storage::Relation& rel = db_->relation(relation);
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    InvertedIndex& index = *indexes_[i];
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
  CheckDelta();
  const storage::Relation& rel = db_->relation(relation);
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    indexes_[i]->RemoveRow(row, rel.at(row, indexed_attrs_[i].attribute));
  }
}

size_t FullTextEngine::MaxRemovedRows(storage::RelationId relation) const {
  size_t max_removed = 0;
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    max_removed = std::max(max_removed, indexes_[i]->num_removed_rows());
  }
  return max_removed;
}

void FullTextEngine::CompactRelationIndexes(storage::RelationId relation) {
  CheckDelta();
  const storage::Relation& rel = db_->relation(relation);
  for (size_t i = 0; i < indexed_attrs_.size(); ++i) {
    if (indexed_attrs_[i].relation != relation) continue;
    indexes_[i]->Compact(rel, indexed_attrs_[i].attribute);
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
  std::vector<storage::RowId> verified;
  for (storage::RowId row :
       vocab_->CandidateRows(*indexes_[slot], slot, resolved, stats)) {
    if (WithCellText(rel.at(row, attr.attribute), [&](std::string_view v) {
          return NoisyContains(v, sample, policy_);
        })) {
      verified.push_back(row);
    }
  }
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
  for (const auto& index : indexes_) bytes += index->index_bytes();
  return bytes;
}

}  // namespace mweaver::text
