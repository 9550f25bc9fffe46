// common::ThreadPool: fork-join correctness, reentrancy (nested Run from
// inside a task — the shape RunTiGreedy's ad-init tasks use when they
// sample), and concurrent external callers. The stress cases are
// deliberately light on assertions: under ThreadSanitizer builds
// (-DISA_SANITIZE=thread) their value is the absence of reported races.

#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace isa {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_GE(pool.concurrency(), 1u);
  constexpr uint64_t kTasks = 1000;
  std::vector<int> hits(kTasks, 0);
  pool.Run(kTasks, [&](uint64_t i) { ++hits[i]; });
  for (uint64_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i], 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.Run(16, [&](uint64_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.Run(0, [&](uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, NestedRunCompletesAllLevels) {
  ThreadPool pool(4);
  constexpr uint64_t kOuter = 9;
  constexpr uint64_t kInner = 23;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.Run(kOuter, [&](uint64_t o) {
    pool.Run(kInner, [&, o](uint64_t i) { ++hits[o][i]; });
  });
  for (uint64_t o = 0; o < kOuter; ++o) {
    for (uint64_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(hits[o][i], 1) << "outer " << o << " inner " << i;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentExternalCallersShareTheWorkers) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr uint64_t kTasks = 257;
  std::vector<std::atomic<uint64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.Run(kTasks, [&, c](uint64_t i) {
        sums[c].fetch_add(i + 1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), kTasks * (kTasks + 1) / 2) << "caller " << c;
  }
}

TEST(ThreadPoolTest, WorkersForScalesWithItemsAndCapsAtConcurrency) {
  ThreadPool pool(4);
  const uint32_t c = pool.concurrency();
  EXPECT_EQ(pool.WorkersFor(0, 100), 1u);
  EXPECT_EQ(pool.WorkersFor(99, 100), 1u);
  EXPECT_EQ(pool.WorkersFor(250, 100), std::min(2u, c));
  EXPECT_EQ(pool.WorkersFor(1'000'000, 100), c);
}

// ---- Exception marshaling (the ROADMAP "graceful OOM" limitation). ----

TEST(ThreadPoolTest, RunRethrowsFirstTaskExceptionAfterBarrier) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.Run(64,
               [&](uint64_t i) {
                 if (i == 7) throw std::runtime_error("boom");
                 ran.fetch_add(1, std::memory_order_relaxed);
               }),
      std::runtime_error);
  // Unclaimed tasks were cancelled; claimed ones finished. Either way the
  // barrier closed and the pool stays usable.
  EXPECT_LE(ran.load(), 63);
  std::atomic<int> after{0};
  pool.Run(16, [&](uint64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPoolTest, RunInlinePathAlsoPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.Run(4, [](uint64_t i) {
    if (i == 2) throw std::bad_alloc();
  }),
               std::bad_alloc);
}

// Stress for TSan: thousands of tiny batches reusing the same workers, the
// pattern RunTiGreedy's incremental sample growths produce.
TEST(ThreadPoolTest, StressManySmallBatches) {
  ThreadPool pool(4);
  uint64_t total = 0;
  for (int round = 0; round < 2000; ++round) {
    const uint64_t n = 1 + (round % 7);
    std::vector<uint64_t> out(n, 0);
    pool.Run(n, [&](uint64_t i) { out[i] = i + 1; });
    total += std::accumulate(out.begin(), out.end(), uint64_t{0});
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace isa
