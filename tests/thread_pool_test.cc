// Unit tests for the worker pool that backs SearchBatch, the server's
// workers and the shard scatter.
#include "util/thread_pool.h"

#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace cirank {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
    EXPECT_EQ(counter.load(std::memory_order_relaxed), 100);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // No WaitIdle: the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 50);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
    EXPECT_EQ(counter.load(std::memory_order_relaxed), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateSizes) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, [&](size_t) { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 0);
  pool.ParallelFor(1, [&](size_t) { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 1);
  // Fewer items than workers.
  pool.ParallelFor(2, [&](size_t) { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 3);
}

TEST(ThreadPoolTest, ParallelForWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(std::memory_order_relaxed), 45);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

}  // namespace
}  // namespace cirank
