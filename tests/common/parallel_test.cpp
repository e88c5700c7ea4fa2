#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/expects.hpp"

namespace drn {
namespace {

// Cap for the tests that run blocks, so none starts more than a few threads.
constexpr unsigned kWorkers = 4;

// Every index in exactly one block, blocks cut every `grain` indices.
void expect_exact_cover(std::size_t n, std::size_t grain) {
  std::vector<int> visits(n, 0);
  std::vector<int> bad_blocks(n / grain + 1, 0);
  parallel_blocks(n, grain, kWorkers, [&](std::size_t lo, std::size_t hi) {
    if (lo % grain != 0 || hi != std::min(n, lo + grain) || lo >= hi)
      ++bad_blocks[lo / grain];
    for (std::size_t i = lo; i < hi; ++i) ++visits[i];
  });
  EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                          [](int v) { return v == 1; }))
      << "n=" << n << " grain=" << grain;
  EXPECT_TRUE(std::all_of(bad_blocks.begin(), bad_blocks.end(),
                          [](int b) { return b == 0; }))
      << "n=" << n << " grain=" << grain;
}

TEST(ParallelBlocks, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kGrain = 7;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kGrain,
                              3 * kGrain, 3 * kGrain + 5, std::size_t{1000}})
    expect_exact_cover(n, kGrain);
  expect_exact_cover(1000, 1);
  expect_exact_cover(5, 1000);
}

TEST(ParallelBlocks, EmptyRangeNeverCallsTheBody) {
  parallel_blocks(0, 3, 0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelBlocks, ZeroGrainIsAContractViolation) {
  EXPECT_THROW(parallel_blocks(4, 0, 0, [](std::size_t, std::size_t) {}),
               ContractViolation);
}

TEST(ParallelBlocks, RethrowsTheLowestFailingBlockAfterAllBlocksRan) {
  constexpr std::size_t kBlocks = 64;
  std::atomic<std::size_t> ran{0};
  try {
    parallel_blocks(kBlocks * 4, 4, kWorkers,
                    [&](std::size_t lo, std::size_t) {
                      ++ran;
                      const std::size_t block = lo / 4;
                      if (block == 9 || block == 23 || block == 60)
                        throw std::runtime_error(std::to_string(block));
                    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "9");
  }
  EXPECT_EQ(ran.load(), kBlocks);
}

TEST(ParallelBlocks, OneWorkerRunsEveryBlockOnTheCallerAsAWorker) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> block_threads(50);
  std::vector<int> flagged(block_threads.size(), 0);
  parallel_blocks(block_threads.size(), 1, 1,
                  [&](std::size_t lo, std::size_t) {
                    block_threads[lo] = std::this_thread::get_id();
                    flagged[lo] = on_parallel_worker() ? 1 : 0;
                  });
  for (const std::thread::id& id : block_threads) EXPECT_EQ(id, caller);
  EXPECT_TRUE(std::all_of(flagged.begin(), flagged.end(),
                          [](int f) { return f == 1; }));
  EXPECT_FALSE(on_parallel_worker());
}

TEST(ParallelBlocks, TheCapBoundsTheThreadsUsed) {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  parallel_blocks(64, 1, 2, [&](std::size_t, std::size_t) {
    const std::lock_guard lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_LE(threads.size(), 2u);
}

TEST(ParallelBlocks, NestedCallsInsideACappedCallRunInline) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 40;
  std::vector<std::thread::id> outer_threads(kOuter);
  std::vector<std::vector<std::thread::id>> inner_threads(
      kOuter, std::vector<std::thread::id>(kInner));
  parallel_blocks(kOuter, 1, 2, [&](std::size_t outer, std::size_t) {
    outer_threads[outer] = std::this_thread::get_id();
    parallel_blocks(kInner, 1, 0, [&](std::size_t inner, std::size_t) {
      inner_threads[outer][inner] = std::this_thread::get_id();
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    for (const std::thread::id& id : inner_threads[o])
      EXPECT_EQ(id, outer_threads[o]);
}

TEST(ParallelBlocks, TheCallerIsAWorkerOnlyWhileItRunsBlocks) {
  EXPECT_FALSE(on_parallel_worker());
  std::vector<int> flagged(16, 0);
  parallel_blocks(flagged.size(), 1, kWorkers,
                  [&](std::size_t lo, std::size_t) {
                    flagged[lo] = on_parallel_worker() ? 1 : 0;
                  });
  EXPECT_TRUE(std::all_of(flagged.begin(), flagged.end(),
                          [](int f) { return f == 1; }));
  EXPECT_FALSE(on_parallel_worker());
}

TEST(ParallelWorker, GuardsNestAndRestore) {
  EXPECT_FALSE(on_parallel_worker());
  {
    const ParallelWorker outer;
    EXPECT_TRUE(on_parallel_worker());
    {
      const ParallelWorker inner;
      EXPECT_TRUE(on_parallel_worker());
    }
    EXPECT_TRUE(on_parallel_worker());
  }
  EXPECT_FALSE(on_parallel_worker());
}

TEST(BlockGrain, AimsAtAFixedStepCountPerBlock) {
  EXPECT_EQ(block_grain(0), block_grain(1));
  EXPECT_EQ(block_grain(1), std::size_t{1} << 16);
  EXPECT_EQ(block_grain(4096), 16u);
  EXPECT_EQ(block_grain(std::size_t{1} << 20), 1u);
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

}  // namespace
}  // namespace drn
