// Minimal data-parallel helper: run a function over [0, n) on a fixed
// number of worker threads. Used by index builds (every attribute's text
// index of a publish builds independently). A search never fans out:
// it runs on its caller's thread, and the service gets its parallelism
// from running many requests at once on its own workers.
#ifndef MWEAVER_COMMON_PARALLEL_H_
#define MWEAVER_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace mweaver {

/// \brief Invokes `fn(i)` for every i in [0, n), distributing work-stealing
/// style over at most `num_threads` runners (<= 1 runs inline on the
/// caller). Blocks until all invocations finish. `fn` must be safe to call
/// concurrently from multiple threads for distinct i.
///
/// Runs on the process-wide common::ThreadPool (the caller participates as
/// one runner), so no threads are created per call and concurrent
/// ParallelFor calls (e.g. publishes of different tenants) share the pool.
/// Each i is invoked exactly once regardless of the thread count, so
/// callers that write results indexed by i stay deterministic.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

}  // namespace mweaver

#endif  // MWEAVER_COMMON_PARALLEL_H_
