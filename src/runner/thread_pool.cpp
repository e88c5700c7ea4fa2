#include "runner/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::runner {

ThreadPool::ThreadPool(unsigned workers) {
  workers = std::max(1u, workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  auto future = wrapped.get_future();
  {
    std::lock_guard lock(mutex_);
    DRN_EXPECTS(!stop_);
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return future;
}

unsigned ThreadPool::hardware_jobs() { return hardware_threads(); }

void ThreadPool::worker_loop() {
  // Tasks are whole trials fanned across the cores already: the set-up
  // stages inside them run their parallel_blocks inline.
  const ParallelWorker worker;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into the future
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    futures.push_back(pool.submit([&body, i] { body(i); }));
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace drn::runner
