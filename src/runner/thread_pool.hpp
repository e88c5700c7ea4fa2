// A fixed-size worker pool for fanning independent trials across cores.
//
// Design constraints (see DESIGN.md "Runner determinism contract"):
//   * tasks must not share mutable state — the pool provides no synchronisation
//     beyond the queue itself;
//   * exceptions thrown inside a task are captured and re-thrown to the
//     caller (from the task's future, or from parallel_for, which re-throws
//     the exception of the LOWEST-indexed failing iteration so the error a
//     caller sees does not depend on scheduling);
//   * workers are parallel workers (common/parallel.hpp): a task's own
//     parallel_blocks calls run inline instead of oversubscribing the cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace drn::runner {

class ThreadPool {
 public:
  /// Spawns `workers` threads (minimum 1).
  explicit ThreadPool(unsigned workers);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues `task`; the future completes when it has run (or re-throws
  /// whatever the task threw).
  std::future<void> submit(std::function<void()> task);

  /// drn::hardware_threads(): hardware_concurrency clamped to at least 1.
  [[nodiscard]] static unsigned hardware_jobs();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(0) .. body(n-1) across the pool and blocks until all complete.
/// If any iterations throw, the exception of the lowest-indexed failing
/// iteration is re-thrown (all iterations still run to completion first).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace drn::runner
