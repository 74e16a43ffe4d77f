// Sample pruning (Section 5): shrinking the candidate set as the user types
// samples below the first row.
//
// Pruning by attribute: a new sample E_i in column i keeps only mappings
// whose projection for i is an attribute containing E_i.
//
// Pruning by mapping structure: whenever a row holds >= 2 samples, each
// candidate is executed as an approximate search query constrained by that
// row; candidates with an empty result are discarded.
#ifndef MWEAVER_CORE_PRUNING_H_
#define MWEAVER_CORE_PRUNING_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/execution_context.h"
#include "core/ranking.h"
#include "query/executor.h"
#include "text/fulltext_engine.h"

namespace mweaver::core {

/// \brief Pruning-by-attribute. Removes from `candidates` every mapping
/// whose column-`target_column` projection is not among the attributes
/// containing `sample`. Returns the number removed. When `ctx` is given,
/// the deadline/cancel token is polled before each candidate's probe and
/// the probes record into its counters; candidates not examined before a
/// stop are kept (pruning must never drop a mapping it did not disprove),
/// and a pre-expired deadline costs zero probes.
size_t PruneByAttribute(const text::FullTextEngine& engine, int target_column,
                        const std::string& sample,
                        std::vector<CandidateMapping>* candidates,
                        ExecutionContext* ctx = nullptr);

/// \brief Pruning-by-structure. `row_samples` holds every non-empty cell of
/// one spreadsheet row (column -> sample); requires >= 2 entries to convey
/// join information, but safely degrades to attribute-style filtering for
/// fewer. Removes candidates with no supporting tuple path. Returns the
/// number removed via `*num_pruned`. When `ctx` is given, the deadline is
/// polled per candidate and inside each support query; candidates not
/// examined — or whose query was cut off before support could be found —
/// are kept (pruning must never drop a mapping it did not disprove). On a
/// failed support query the error is returned and `candidates` is left
/// unchanged.
Status PruneByStructure(const query::PathExecutor& executor,
                        const query::SampleMap& row_samples,
                        std::vector<CandidateMapping>* candidates,
                        size_t* num_pruned, ExecutionContext* ctx = nullptr);

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_PRUNING_H_
