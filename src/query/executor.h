// PathExecutor: evaluates mapping paths against the source instance.
//
// This is the engine behind three paper operations:
//  * pairwise tuple-path creation (Section 4.5.3): "translate the mapping
//    into an approximate search query ... execute it in the source database";
//  * pruning by mapping structure (Section 5): emptiness checks of keyword-
//    constrained candidate mappings;
//  * materializing M(DS) target rows (used by the workload generator, the
//    Eirene baseline and the naive baseline's validation step).
//
// Execution strategy: start from the most selective keyword-constrained
// vertex and enumerate tuple assignments by following foreign-key hash
// indexes along the tree's edges — never scanning unrelated tuples.
//
// Normal form: two neighbors of the same vertex joined via the same foreign
// key and orientation must be assigned *distinct* tuples. Assignments
// violating this collapse to a structurally smaller mapping path (the two
// occurrences are the same tuple), which is exactly what TPW's Weave merges
// into one vertex; enforcing it here keeps the executor's notion of
// validity aligned with the tuple paths TPW constructs, for both the
// pairwise step and the naive baseline's validation queries.
#ifndef MWEAVER_QUERY_EXECUTOR_H_
#define MWEAVER_QUERY_EXECUTOR_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/mapping_path.h"
#include "core/tuple_path.h"
#include "text/fulltext_engine.h"

namespace mweaver::query {

/// \brief Keyword constraints: target column -> user sample. Columns absent
/// from the map are unconstrained.
using SampleMap = std::map<int, std::string>;

/// \brief The verified rows of one keyword-constrained projection, already
/// known to the caller: what FullTextEngine::MatchingRows returns for `attr`
/// and the sample of `target_column`. A plan takes the rows of a projection
/// whose (column, attribute) an entry names instead of probing. Pairwise
/// execution passes the location map's occurrence rows (Algorithm 1 probed
/// them); pruning keeps the rows its passes probed for one spreadsheet row,
/// so each (column, attribute) of a sample is probed once.
struct LocatedRows {
  int target_column = -1;
  text::AttributeRef attr;
  text::RowSet rows;
};

/// \brief The entry of `located` for (`target_column`, `attr`), or null.
const LocatedRows* FindLocated(std::span<const LocatedRows> located,
                               int target_column,
                               const text::AttributeRef& attr);

struct ExecOptions {
  /// Stop after this many tuple paths (0 = unlimited).
  size_t max_results = 0;
};

/// \brief Evaluates mapping paths over a full-text-indexed database.
class PathExecutor {
 public:
  /// \brief `engine` must outlive the executor.
  explicit PathExecutor(const text::FullTextEngine* engine);

  const text::FullTextEngine& engine() const { return *engine_; }

  /// \brief All tuple paths instantiating `mapping` whose projected cells
  /// noisily contain the given samples. Fails only on malformed mappings
  /// (e.g. a projection for a column with no vertex). When `ctx` is given,
  /// the enumeration polls its deadline/cancel token and returns the
  /// results found so far on a stop. A constrained projection whose column
  /// and attribute appear in `located` takes those rows; the rest are
  /// probed through the engine. The result is the same either way.
  ///
  /// Plans live in the calling thread's reused buffers, so a warm call
  /// allocates only its results.
  Result<std::vector<core::TuplePath>> Execute(
      const core::MappingPath& mapping, const SampleMap& samples,
      const ExecOptions& options = {}, core::ExecutionContext* ctx = nullptr,
      std::span<const LocatedRows> located = {}) const;

  /// \brief True iff at least one supporting tuple path exists. Runs
  /// Execute's plan and enumeration (same start vertex, distinctness checks
  /// and stop polls) but stops at the first complete assignment without
  /// building a tuple path. A stopped `ctx` reports false for support not
  /// yet found. `resolved` (may be null) holds rows resolved earlier for
  /// the same `samples`: a projection found there is not probed, and each
  /// probe the call issues is appended to it.
  Result<bool> HasSupport(const core::MappingPath& mapping,
                          const SampleMap& samples,
                          core::ExecutionContext* ctx = nullptr,
                          std::vector<LocatedRows>* resolved = nullptr) const;

  /// \brief Human-readable EXPLAIN of the evaluation plan: start-vertex
  /// choice (most selective constraint), index-join order, candidate-set
  /// sizes, and distinctness guards.
  Result<std::string> Explain(const core::MappingPath& mapping,
                              const SampleMap& samples = {}) const;

  /// \brief Distinct projected target rows of M(DS) (display strings ordered
  /// by target column), up to `max_rows` tuple paths enumerated (0 =
  /// unlimited).
  Result<std::vector<std::vector<std::string>>> EvaluateTarget(
      const core::MappingPath& mapping, size_t max_rows = 0,
      core::ExecutionContext* ctx = nullptr) const;

 private:
  const text::FullTextEngine* engine_;
};

}  // namespace mweaver::query

#endif  // MWEAVER_QUERY_EXECUTOR_H_
