#include "core/session.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pruning.h"

namespace mweaver::core {

namespace {
const std::string kEmptyCell;
}  // namespace

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kAwaitingFirstRow:
      return "awaiting-first-row";
    case SessionState::kRefining:
      return "refining";
    case SessionState::kConverged:
      return "converged";
    case SessionState::kNoMapping:
      return "no-mapping";
  }
  return "?";
}

Session::Session(const text::FullTextEngine* engine,
                 const graph::SchemaGraph* schema_graph,
                 std::vector<std::string> column_names, SearchOptions options)
    : engine_(engine),
      schema_graph_(schema_graph),
      column_names_(std::move(column_names)),
      options_(options) {
  MW_CHECK(engine != nullptr);
  MW_CHECK(schema_graph != nullptr);
  MW_CHECK(!column_names_.empty());
}

const std::string& Session::cell(size_t row, size_t col) const {
  if (row >= grid_.size() || col >= grid_[row].size()) return kEmptyCell;
  return grid_[row][col];
}

const CandidateMapping& Session::best() const {
  static const CandidateMapping kNoMapping;
  if (candidates_.empty()) return kNoMapping;
  return candidates_.front();
}

size_t Session::num_samples() const {
  size_t count = 0;
  for (const auto& row : grid_) {
    for (const auto& cell : row) {
      if (!cell.empty()) ++count;
    }
  }
  return count;
}

Status Session::Input(size_t row, size_t col, std::string value) {
  if (col >= column_names_.size()) {
    return Status::OutOfRange(
        StrFormat("column %zu out of range (target has %zu columns)", col,
                  column_names_.size()));
  }
  if (row == 0 && searched_) {
    return Status::FailedPrecondition(
        "the first row is fixed once sample search has run; call Reset() to "
        "start over");
  }
  if (row >= grid_.size()) {
    grid_.resize(row + 1, std::vector<std::string>(column_names_.size()));
  }
  grid_[row][col] = value;
  if (value.empty()) return Status::OK();  // cleared cells carry no signal

  if (row == 0) {
    // Search fires once the first row is fully populated (Section 3).
    for (const std::string& cell : grid_[0]) {
      if (cell.empty()) return Status::OK();
    }
    return RunSearch();
  }
  if (!searched_) {
    return Status::FailedPrecondition(
        "fill the first row completely before providing further samples");
  }
  return RunPruning(row, col, value);
}

Status Session::RenameColumn(size_t col, std::string name) {
  if (col >= column_names_.size()) {
    return Status::OutOfRange(StrFormat("column %zu out of range", col));
  }
  column_names_[col] = std::move(name);
  return Status::OK();
}

void Session::Reset() {
  grid_.clear();
  candidates_.clear();
  searched_ = false;
  // A rejection from before the Reset() is not an event of the new
  // interaction; leaving it set reports a phantom rejection.
  last_input_rejected_ = false;
  state_ = SessionState::kAwaitingFirstRow;
  search_stats_ = SearchStats{};
  last_search_ms_ = 0.0;
  last_prune_ms_ = 0.0;
}

Result<std::vector<RowSuggestion>> Session::SuggestRows(size_t limit) {
  SuggestOptions options;
  options.limit = limit;
  // Suggestion queries run under the same per-request controls as search
  // and pruning: the armed deadline/cancel token applies and the
  // evaluation probes are visible in context().trace().
  context_.ResetForSearch();
  query::PathExecutor executor(engine_);
  return SuggestDiscriminatingRows(executor, candidates_, options, &context_);
}

Status Session::RunSearch() {
  Stopwatch watch;
  context_.ResetForSearch();
  MW_ASSIGN_OR_RETURN(
      SearchResult result,
      search_fn_ ? search_fn_(grid_[0], options_, context_)
                 : SampleSearch(*engine_, *schema_graph_, grid_[0], options_,
                                context_));
  searched_ = true;
  candidates_ = std::move(result.candidates);
  search_stats_ = result.stats;
  last_search_ms_ = watch.ElapsedMillis();
  UpdateState();
  return Status::OK();
}

Status Session::RunPruning(size_t row, size_t col, const std::string& value) {
  Stopwatch watch;
  context_.ResetForSearch();
  last_input_rejected_ = false;
  // Snapshot so an irrelevant sample can be rolled back.
  std::vector<CandidateMapping> snapshot;
  if (reject_irrelevant_) snapshot = candidates_;

  ExecutionContext::StageSpan span = context_.TraceStage(SearchStage::kPrune);
  span.AddItems(candidates_.size());

  // Pruning by attribute always applies to the newly typed sample.
  PruneByAttribute(*engine_, static_cast<int>(col), value, &candidates_,
                   &context_);

  // Pruning by mapping structure applies when the row carries more than one
  // sample (Section 5).
  query::SampleMap row_samples;
  for (size_t c = 0; c < grid_[row].size(); ++c) {
    if (!grid_[row][c].empty()) {
      row_samples.emplace(static_cast<int>(c), grid_[row][c]);
    }
  }
  if (!candidates_.empty() && row_samples.size() >= 2) {
    query::PathExecutor executor(engine_);
    MW_RETURN_NOT_OK(PruneByStructure(executor, row_samples, &candidates_,
                                      nullptr, &context_));
  }
  span.Finish();

  if (reject_irrelevant_ && candidates_.empty() && !snapshot.empty()) {
    // The sample contradicts every remaining candidate: warn instead of
    // invalidating previously correct mappings (§7).
    candidates_ = std::move(snapshot);
    grid_[row][col].clear();
    last_input_rejected_ = true;
  }
  last_prune_ms_ = watch.ElapsedMillis();
  UpdateState();
  return Status::OK();
}

void Session::UpdateState() {
  if (!searched_) {
    state_ = SessionState::kAwaitingFirstRow;
  } else if (candidates_.empty()) {
    state_ = SessionState::kNoMapping;
  } else if (candidates_.size() == 1) {
    state_ = SessionState::kConverged;
  } else {
    state_ = SessionState::kRefining;
  }
}

}  // namespace mweaver::core
