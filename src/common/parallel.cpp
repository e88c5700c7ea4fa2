#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/expects.hpp"

namespace drn {

namespace {
thread_local bool t_parallel_worker = false;
}  // namespace

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool on_parallel_worker() { return t_parallel_worker; }

ParallelWorker::ParallelWorker() : previous_(t_parallel_worker) {
  t_parallel_worker = true;
}

ParallelWorker::~ParallelWorker() { t_parallel_worker = previous_; }

std::size_t block_grain(std::size_t item_cost) {
  constexpr std::size_t kBlockSteps = std::size_t{1} << 16;
  const std::size_t cost = std::max<std::size_t>(1, item_cost);
  return std::max<std::size_t>(1, kBlockSteps / cost);
}

void parallel_blocks(
    std::size_t n, std::size_t grain, unsigned max_workers,
    const std::function<void(std::size_t lo, std::size_t hi)>& body) {
  DRN_EXPECTS(grain > 0);
  const std::size_t blocks = n / grain + (n % grain != 0 ? 1 : 0);
  std::vector<std::exception_ptr> errors(blocks);  // one slot per block
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    const ParallelWorker worker;
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < blocks; b = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = b * grain;
      try {
        body(lo, std::min(n, lo + grain));
      } catch (...) {
        errors[b] = std::current_exception();
      }
    }
  };

  const std::size_t participants =
      blocks <= 1 || on_parallel_worker()
          ? 1
          : std::min<std::size_t>(
                max_workers == 0 ? hardware_threads() : max_workers, blocks);
  std::vector<std::thread> helpers;
  helpers.reserve(participants - 1);
  for (std::size_t t = 1; t < participants; ++t) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // no more threads to be had: the others drain every block
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();

  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace drn
