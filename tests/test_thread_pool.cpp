#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace taamr {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(0, touched.size(), [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NonZeroBegin) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(ThreadPool, SumMatchesSerial) {
  const std::size_t n = 10000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i) * 0.5;
  std::vector<double> out(n, 0.0);
  parallel_for(0, n, [&](std::size_t i) { out[i] = values[i] * 2.0; });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ThreadPool, DedicatedPoolRunsTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RepeatedUseIsStable) {
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    parallel_for(0, 50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, GlobalPoolHasAtLeastOneWorker) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

// The pre-fix pool deadlocked here: the outer parallel_for occupied every
// worker, and each inner parallel_for then waited forever for a free one.
// With inline nesting the inner loops run serially on the worker itself.
TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedParallelForCoversEachIndexOnce) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> touched(16 * 16);
  pool.parallel_for(0, 16, [&](std::size_t i) {
    pool.parallel_for(0, 16,
                      [&](std::size_t j) { touched[i * 16 + j].fetch_add(1); });
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// Even with every worker pinned on another job, a parallel_for must finish:
// the calling thread claims the chunks itself instead of waiting for a
// worker to free up.
TEST(ThreadPool, CallerRunsWhenWorkersAreBlocked) {
  ThreadPool pool(2);
  std::atomic<int> spinning{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    pool.parallel_for(0, 3, [&](std::size_t) {
      spinning.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  // Both workers plus the blocker thread are now pinned inside bodies.
  while (spinning.load() < 3) std::this_thread::yield();

  std::vector<std::atomic<int>> touched(100);
  pool.parallel_for(0, touched.size(), [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);

  release.store(true);
  blocker.join();
}

}  // namespace
}  // namespace taamr
