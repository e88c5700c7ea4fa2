// Data-parallel loops: the O(M²) set-up stages (gain matrix, neighbour scan,
// routing trees), the trials of a sweep and Figure 1's Monte-Carlo trials.
// The one place that starts threads (drn_lint's raw-thread rule).
//
// parallel_blocks(n, grain, max_workers, body) splits [0, n) into fixed
// blocks of `grain` indices, lets up to max_workers participants (the caller
// plus helper threads; 0 means hardware_threads()) claim blocks through an
// atomic counter, and returns when every block has run. The split and the
// order blocks are claimed in carry no meaning: callers give each output
// element exactly one writing block and compute it with the same pure
// function a serial loop would, so results are bit-identical however the
// blocks land (DESIGN.md "Parallel set-up").
//
// A call runs every block inline on the calling thread when there is at most
// one block, the cap (or the machine) allows one participant, or the caller
// is itself a parallel worker: a participant of an enclosing parallel_blocks
// call. Sweeps that already fan trials across cores therefore build each
// trial's set-up inline and never oversubscribe them.
#pragma once

#include <cstddef>
#include <functional>

namespace drn {

/// std::thread::hardware_concurrency() clamped to at least 1.
[[nodiscard]] unsigned hardware_threads();

/// True while the calling thread is a parallel worker (see ParallelWorker).
[[nodiscard]] bool on_parallel_worker();

/// Marks the calling thread as a parallel worker for the guard's lifetime;
/// parallel_blocks calls made meanwhile run inline. Nests.
class ParallelWorker {
 public:
  ParallelWorker();
  ~ParallelWorker();
  ParallelWorker(const ParallelWorker&) = delete;
  ParallelWorker& operator=(const ParallelWorker&) = delete;

 private:
  bool previous_;
};

/// Items per block when each item costs about `item_cost` elementary steps:
/// blocks of roughly 2^16 steps (at least one item), large enough that
/// starting a thread is noise, small enough to balance the load.
[[nodiscard]] std::size_t block_grain(std::size_t item_cost);

/// Runs body(lo, hi) once for every block [lo, hi) of [0, n) cut every
/// `grain` indices (grain > 0), on at most `max_workers` threads at once
/// (0 means hardware_threads()). Blocks must not share mutable state. Every
/// block runs even if some throw; afterwards the exception of the
/// lowest-indexed failing block is rethrown.
void parallel_blocks(
    std::size_t n, std::size_t grain, unsigned max_workers,
    const std::function<void(std::size_t lo, std::size_t hi)>& body);

}  // namespace drn
