// A small fixed-size thread pool for parallel view refresh
// (ViewManager::Refresh runs one view's epoch per task). No work stealing,
// no priorities: callers submit closures, workers drain the shared queue in
// FIFO order. The destructor finishes every queued task
// before joining, so a scoped pool doubles as a join barrier.

#ifndef IDIVM_COMMON_THREAD_POOL_H_
#define IDIVM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idivm {

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(int threads);

  // Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Safe to call from worker threads (tasks may spawn
  // follow-up tasks).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  // Best-effort hardware concurrency (at least 1).
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace idivm

#endif  // IDIVM_COMMON_THREAD_POOL_H_
