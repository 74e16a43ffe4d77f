// The traced run: per-layer metrics for one workload.
//
// It sets the tenant up like the untraced run, then makes two serial passes
// (one session in flight) over the same seeded plans, each on a freshly
// published tenant and a fresh service:
//
//  * pass A, untraced: the reference end-to-end time;
//  * pass B, traced: the same sessions, with spans built from client-side
//    timestamps around every public call the benchmark makes
//    (MappingService::CreateSession / Enqueue / ApplyUpdate, Catalog::Pin /
//    Publish). After each session, its keystrokes are replayed into the
//    layers the service reaches only internally, on a second copy of the
//    tenant whose probe memo sees the same probe sequence: a core::Session
//    whose search function calls the TPW stage functions in SampleSearch's
//    order (each probe once, as the service makes it: LocationMap::Build is
//    the locate stage's text.probes span), and TenantWriter::Apply for
//    update batches. Replay
//    spans are logical children of the service span they explain; the
//    replay must return what the service returned (state and candidate
//    count per keystroke).
//
// Self time is a span's duration minus its children's durations.
// bench.layer_sum_ratio sums every span's self time (clamped at zero) over
// pass B's end-to-end time: 1.0 when the replayed layers fit inside the
// time the client observed, above 1 by the time a replayed call ran
// longer than the client-observed request it explains.
// bench.trace_overhead_ratio is pass B's end-to-end time over pass A's,
// minus one. Spans are kept in memory and written as Chrome trace-event
// JSON when the run ends.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "setup.h"

namespace mweaver::perfbench {

struct TracedOptions {
  uint64_t seed = 1;
  size_t setups = 7;
  /// Sessions per pass (a prefix of the round's plans).
  size_t sessions = 480;
  /// Chrome trace-event output; empty = do not write spans.
  std::string spans_out;
};

/// \brief Runs the traced measurement, prints the per-layer metrics as the
/// final JSON line, and returns the process exit code (1 on a wrong answer).
int RunTraced(const WorkloadConfig& config, const TracedOptions& options);

}  // namespace mweaver::perfbench

#endif  // PERFBENCH_LAYERS_H_
