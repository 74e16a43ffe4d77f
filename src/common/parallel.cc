#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"

namespace mweaver {

namespace {

// State shared between the caller and its pool helpers. Held by
// shared_ptr: a helper that only gets scheduled after the loop already
// finished (every pool thread was busy) finds no work and must not touch
// a dead stack frame.
struct LoopState {
  LoopState(size_t n_in, std::function<void(size_t)> fn_in)
      : n(n_in), fn(std::move(fn_in)) {}

  const size_t n;
  const std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // guarded by mu

  // Claims and runs indices until none remain.
  void Run() {
    size_t mine = 0;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
      ++mine;
    }
    if (mine == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    completed += mine;
    if (completed == n) cv.notify_one();
  }
};

}  // namespace

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<LoopState>(n, fn);
  // Up to workers-1 helpers on the shared pool; the caller is always a
  // runner itself, so the loop completes even if no helper ever gets a
  // pool thread (e.g. nested ParallelFor with every pool thread busy).
  // The wait below is on WORK completion, not helper completion, which is
  // what makes that progress guarantee deadlock-free.
  const size_t workers = std::min(num_threads, n);
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t w = 0; w + 1 < workers; ++w) {
    pool.Submit([state]() { state->Run(); });
  }
  state->Run();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&]() { return state->completed == n; });
}

}  // namespace mweaver
