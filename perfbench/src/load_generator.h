// The load generator: replays the seeded session plans against a real
// service::MappingService with a fixed number of sessions in flight.
//
// Keystrokes are chained from completion callbacks: each session's next
// keystroke is Enqueue'd from the callback of its previous one (on a service
// worker), and a finished session's slot immediately starts the next plan.
// The calling thread only waits for the round to end, so no client thread
// wakes up per keystroke. On the churn workloads a writer thread issues
// update batches tied to the read progress (one batch every k completed
// sessions) and now and then republishes the tenant.
#ifndef PERFBENCH_LOAD_GENERATOR_H_
#define PERFBENCH_LOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/snapshot.h"
#include "common.h"
#include "service/mapping_service.h"
#include "setup.h"
#include "text/lookup_stats.h"

namespace mweaver::perfbench {

enum class SessionEnd : uint8_t {
  kConverged,    // one candidate left: it must be the goal mapping
  kUnconverged,  // script exhausted: the goal must still be a candidate
  kNoMapping,    // every candidate pruned: a wrong answer
  kFailed,       // a request failed, was shed or was truncated
};

/// \brief One keystroke as the client saw it (recorded on request).
struct KeyLog {
  Clock::time_point sent;      // before Enqueue
  Clock::time_point admitted;  // Enqueue returned
  Clock::time_point done;      // completion callback entered
  core::SessionState state = core::SessionState::kAwaitingFirstRow;
  size_t num_candidates = 0;
  bool cache_hit = false;
};

struct SessionRecord {
  Clock::time_point created;  // before CreateSession
  Clock::time_point start;    // CreateSession returned
  Clock::time_point end;      // last answer received
  double session_ms = 0.0;  // first keystroke sent -> last answer received
  double search_ms = 0.0;   // the keystroke completing the first row
  bool search_cache_hit = false;
  SessionEnd outcome = SessionEnd::kFailed;
  bool wrong = false;
  /// With RoundOptions::record_keys: every keystroke sent, and the probe
  /// counters of the service's own (uncached) first-row search.
  std::vector<KeyLog> keys;
  text::ProbeStats search_probes;
};

/// \brief One candidate as compared by the rebuild search check.
struct CandidateSig {
  std::string canonical;
  size_t support = 0;
  double score = 0.0;
  bool operator==(const CandidateSig&) const = default;
};

/// \brief A search captured for re-running on a 1-shard engine over the
/// same pinned snapshot.
struct SearchSample {
  catalog::SnapshotPtr snapshot;
  uint32_t plan = 0;
  std::vector<CandidateSig> candidates;
};

/// \brief One writer step: an update batch through the service, or a
/// republish straight into the catalog.
struct UpdateRecord {
  size_t batch = 0;          // writer batch index within the round
  bool publish = false;      // a republish (after batch `batch`)
  Clock::time_point start;
  Clock::time_point end;
  uint64_t shards_rebuilt = 0;  // republish: shards the catalog rebuilt
  double latency_ms = 0.0;  // ApplyUpdate, client observed
  double late_ms = 0.0;     // issue time - when its session quota was met
  uint64_t late_sessions = 0;
  bool ok = false;
};

struct RoundResult {
  std::vector<SessionRecord> sessions;  // indexed by plan
  std::vector<UpdateRecord> updates;    // writer steps in issue order
  std::vector<SearchSample> search_samples;
  double wall_s = 0.0;
  uint64_t requests = 0;
  uint64_t requests_failed = 0;  // failed, overloaded or truncated
  std::vector<std::string> errors;
};

struct RoundOptions {
  size_t in_flight = 1;
  /// Plans run: a prefix of the environment's list (0 = all).
  size_t plans = 0;
  /// Run the churn writer beside the sessions.
  bool writer = false;
  /// The writer applies each batch before the next session starts (the
  /// traced passes: a deterministic read/write interleaving).
  bool serial_writer = false;
  /// > 0: capture every stride-th plan's search for the 1-shard re-run.
  size_t sample_stride = 0;
  /// Keep every keystroke's KeyLog and the searches' probe counters.
  bool record_keys = false;
};

/// \brief Runs rounds of the environment's plans against `service`.
class LoadGenerator {
 public:
  LoadGenerator(service::MappingService* service, Environment* env,
         const WorkloadConfig& config);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// \brief Runs the plans once with `options.in_flight` sessions in
  /// flight; with `options.writer` a writer thread applies update batches
  /// tied to the read progress (one every sessions_per_update sessions).
  RoundResult RunRound(const RoundOptions& options);

 private:
  struct Live;
  struct RoundState;

  void StartNext(RoundState* round);
  void SendKey(RoundState* round, Live* live);
  void OnResult(RoundState* round, Live* live, Clock::time_point sent,
                service::RequestResult result);
  void Finish(RoundState* round, Live* live, SessionEnd end);
  void WriterLoop(RoundState* round);

  service::MappingService* const service_;
  Environment* const env_;
  const WorkloadConfig config_;
  /// Alternates the republished source between the pristine rows and the
  /// pristine rows plus one appended movie, so consecutive publishes differ
  /// in exactly one shard's rows.
  bool publish_variant_ = false;
};

/// \brief Rows the writer's latest insert batch added: (relation, row id).
using OwnedRows = std::vector<std::pair<std::string, storage::RowId>>;

/// \brief The churn writer's step `batch`: even steps insert the seeded
/// rows of pair batch / 2, odd steps delete `owned`, the rows the previous
/// step inserted.
catalog::UpdateBatch WriterBatch(const Environment& env, size_t batch,
                                 const OwnedRows& owned);

/// \brief The rows an applied `batch` inserted, as `WriterBatch`'s next
/// step deletes them (empty for a delete step).
OwnedRows InsertedRows(const catalog::UpdateBatch& batch,
                       const std::vector<storage::RowId>& inserted);

/// \brief Publishes `source` (plus one appended movie row when `variant`)
/// as the tenant's next epoch; returns false on failure.
bool Republish(catalog::Catalog* catalog, const storage::Database& source,
               bool variant);

/// \brief True for the outcomes counted as failed: failed, overloaded (shed)
/// and truncated.
bool RequestFailed(const service::RequestResult& result);

/// \brief Signatures of a candidate list, in rank order.
std::vector<CandidateSig> Signatures(
    const std::vector<core::CandidateMapping>& candidates);

}  // namespace mweaver::perfbench

#endif  // PERFBENCH_LOAD_GENERATOR_H_
