// Session: the interaction model of Section 3, driving the input
// spreadsheet. The user fills the first row completely (triggering sample
// search), then keeps entering samples in lower rows (triggering sample
// pruning) until a single candidate mapping remains.
#ifndef MWEAVER_CORE_SESSION_H_
#define MWEAVER_CORE_SESSION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/execution_context.h"
#include "core/options.h"
#include "core/ranking.h"
#include "core/sample_search.h"
#include "core/suggest.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "text/fulltext_engine.h"

namespace mweaver::core {

enum class SessionState {
  /// First row not yet fully populated: no candidates yet.
  kAwaitingFirstRow,
  /// Candidates exist; more samples would narrow them down.
  kRefining,
  /// Exactly one candidate remains: the desired mapping.
  kConverged,
  /// All candidates were pruned away (or none found): the samples are
  /// inconsistent with the source instance.
  kNoMapping,
};

const char* SessionStateName(SessionState state);

/// \brief An interactive MWeaver mapping-design session over one source
/// database.
class Session {
 public:
  /// \brief `engine` and `schema_graph` must outlive the session.
  /// `column_names` fixes the target schema (one spreadsheet column each).
  Session(const text::FullTextEngine* engine,
          const graph::SchemaGraph* schema_graph,
          std::vector<std::string> column_names,
          SearchOptions options = {});

  /// \brief Replaces the first-row search implementation. The service layer
  /// installs a caching wrapper here; by default the session calls
  /// SampleSearch() directly. The function receives the fully populated
  /// first row, the session's (immutable) options, and the session's
  /// execution context, already reset for this search.
  using SearchFn = std::function<Result<SearchResult>(
      const std::vector<std::string>& first_row, const SearchOptions&,
      ExecutionContext&)>;
  void set_search_fn(SearchFn fn) { search_fn_ = std::move(fn); }

  /// \brief The session's search options. Immutable after construction:
  /// per-request state (deadline, cancellation) lives on
  /// context(), and the service's result cache keys on
  /// options().Fingerprint() under that assumption.
  const SearchOptions& options() const { return options_; }

  /// \brief The session's execution context. Callers arm per-request state
  /// (deadline, cancel token) here before Input(); the
  /// session resets its transient state (stop latch, trace, arena) at the
  /// start of every search or pruning pass, re-using the arena's blocks.
  ExecutionContext& context() { return context_; }
  const ExecutionContext& context() const { return context_; }

  /// \brief Input(i, j, c): sets the spreadsheet cell at `row`, `col` and
  /// reacts per the interaction model. Empty `value` clears a cell (ignored
  /// by the model, Section 3). Fails on out-of-range columns or when
  /// editing the first row after it was already searched (re-entry is
  /// supported by Reset()).
  Status Input(size_t row, size_t col, std::string value);

  /// \brief Renames a target column (spreadsheet header edit).
  Status RenameColumn(size_t col, std::string name);

  /// \brief Clears all cells and candidates, keeping the target schema.
  void Reset();

  /// \brief Irrelevant-sample protection (the paper's §7 future work: "warn
  /// the user about irrelevant [data]" that "will invalidate previously
  /// generated correct mappings"). When enabled, a below-first-row sample
  /// that would prune away *every* candidate is rejected: the cell is
  /// cleared, the previous candidates are restored, and
  /// last_input_rejected() reports the event. Off by default (the paper's
  /// §5 behaviour).
  void set_reject_irrelevant_samples(bool enabled) {
    reject_irrelevant_ = enabled;
  }
  bool reject_irrelevant_samples() const { return reject_irrelevant_; }
  /// \brief True iff the most recent Input() was rejected as irrelevant.
  bool last_input_rejected() const { return last_input_rejected_; }

  /// \brief Suggests target rows whose confirmation would prune the
  /// current candidate set (§7's "automatically suggest relevant data");
  /// see core/suggest.h. Empty before the first search or after
  /// convergence. Runs on the session's context (reset first), so the
  /// armed deadline/cancel token applies and the evaluation probes land in
  /// context().trace() — hence non-const.
  Result<std::vector<RowSuggestion>> SuggestRows(size_t limit = 5);

  SessionState state() const { return state_; }
  bool converged() const { return state_ == SessionState::kConverged; }

  size_t num_columns() const { return column_names_.size(); }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  /// \brief The cell's value; out-of-range coordinates read as an (empty)
  /// never-written cell rather than faulting.
  const std::string& cell(size_t row, size_t col) const;
  size_t num_rows() const { return grid_.size(); }

  /// \brief Current candidate mappings, best first.
  const std::vector<CandidateMapping>& candidates() const {
    return candidates_;
  }
  /// \brief The single remaining mapping. Before convergence (or after all
  /// candidates were pruned away) returns a default-constructed empty
  /// candidate (score 0, support 0) instead of aborting, so service
  /// handlers can probe it without pre-checking converged().
  const CandidateMapping& best() const;

  /// \brief Stats of the initial sample search (valid after the first row
  /// completes).
  const SearchStats& search_stats() const { return search_stats_; }
  /// \brief Wall-clock of the most recent search (ms).
  double last_search_ms() const { return last_search_ms_; }
  /// \brief Wall-clock of the most recent pruning pass (ms).
  double last_prune_ms() const { return last_prune_ms_; }

  /// \brief Total number of non-empty cells entered so far (the "number of
  /// samples" metric of Table 1 / Figure 12).
  size_t num_samples() const;

 private:
  Status RunSearch();
  Status RunPruning(size_t row, size_t col, const std::string& value);
  void UpdateState();

  const text::FullTextEngine* engine_;
  const graph::SchemaGraph* schema_graph_;
  std::vector<std::string> column_names_;
  SearchOptions options_;
  ExecutionContext context_;
  SearchFn search_fn_;

  std::vector<std::vector<std::string>> grid_;
  bool reject_irrelevant_ = false;
  bool last_input_rejected_ = false;
  bool searched_ = false;
  SessionState state_ = SessionState::kAwaitingFirstRow;
  std::vector<CandidateMapping> candidates_;
  /// The rows located for the samples of grid row `located_row_` (0 =
  /// none: the first row is searched, never pruned), shared by every
  /// pruning pass over that row so each (column, attribute) is probed
  /// once per sample. A column's entries are for the value Input() last
  /// wrote to its cell; a pass reads only the columns holding a sample.
  /// The engine is the session's own pinned, immutable one, so these are
  /// the rows a probe would return.
  std::vector<query::LocatedRows> located_;
  size_t located_row_ = 0;
  SearchStats search_stats_;
  double last_search_ms_ = 0.0;
  double last_prune_ms_ = 0.0;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_SESSION_H_
