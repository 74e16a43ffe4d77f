// Reusable fixed-size worker pool: the substrate of ParallelFor (the
// data-parallel index builds of a publish). A long-lived process pays
// thread start-up once instead of per build.
#ifndef MWEAVER_COMMON_THREAD_POOL_H_
#define MWEAVER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mweaver {

/// \brief A fixed set of worker threads draining a FIFO task queue.
///
/// Submit() never blocks and never runs the task inline; tasks run in
/// submission order (started FIFO, completion order depends on task
/// length). Destruction stops the workers after their current task;
/// still-queued tasks are discarded.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues `task`; returns immediately.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// \brief Process-wide shared pool sized to the hardware concurrency
  /// (at least 2 threads). ParallelFor runs on this pool.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mweaver

#endif  // MWEAVER_COMMON_THREAD_POOL_H_
