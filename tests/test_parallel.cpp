// Thread pool and parallel loop helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "hcep/parallel/thread_pool.hpp"

namespace {

using namespace hcep;

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeReflectsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { ++hits[i]; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  ThreadPool pool(2);
  int count = 0;  // non-atomic: safe only if inline
  parallel_for(pool, 0, 4, [&](std::size_t) { ++count; }, 64);
  EXPECT_EQ(count, 4);
}

TEST(ParallelFor, MinBlockLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  int count = 0;  // non-atomic: safe only if inline
  parallel_for(pool, 0, 100, [&](std::size_t) { ++count; }, 1000);
  EXPECT_EQ(count, 100);
}

TEST(ParallelFor, NestedCallsFromWorkersRunInlineWithoutDeadlock) {
  // A parallel_for issued from inside a pool worker used to enqueue
  // blocks back onto the same (busy) pool and wait — with every worker
  // waiting, nothing drained the queue. Nested calls now detect the
  // worker-thread context and execute inline.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  parallel_for(
      pool, 0, 8,
      [&](std::size_t) {
        parallel_for(
            pool, 0, 100, [&](std::size_t) { ++inner_total; }, 1);
      },
      1);
  EXPECT_EQ(inner_total.load(), 8 * 100);
}

TEST(ParallelFor, DeeplyNestedCallsComplete) {
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  parallel_for(
      pool, 0, 4,
      [&](std::size_t) {
        parallel_for(
            pool, 0, 4,
            [&](std::size_t) {
              parallel_for(pool, 0, 4, [&](std::size_t) { ++leaf; }, 1);
            },
            1);
      },
      1);
  EXPECT_EQ(leaf.load(), 4 * 4 * 4);
}

TEST(ParallelReduce, NestedCallsFromWorkersRunInline) {
  ThreadPool pool(2);
  const auto total = parallel_reduce<long long>(
      pool, 0, 16, 0LL,
      [&](std::size_t) {
        return parallel_reduce<long long>(
            pool, 1, 11, 0LL,
            [](std::size_t i) { return static_cast<long long>(i); },
            [](long long a, long long b) { return a + b; }, 1);
      },
      [](long long a, long long b) { return a + b; }, 1);
  EXPECT_EQ(total, 16 * 55);
}

TEST(ParallelFor, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(
          pool, 0, 8,
          [&](std::size_t) {
            parallel_for(
                pool, 0, 50,
                [](std::size_t i) {
                  if (i == 33) throw std::runtime_error("nested boom");
                },
                1);
          },
          1),
      std::runtime_error);
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  auto f = pool.submit([&] { return pool.on_worker_thread(); });
  EXPECT_TRUE(f.get());
  // Workers of one pool are not workers of another.
  ThreadPool other(1);
  auto g = pool.submit([&] { return other.on_worker_thread(); });
  EXPECT_FALSE(g.get());
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          pool, 0, 1000,
          [](std::size_t i) {
            if (i == 777) throw std::runtime_error("at 777");
          },
          8),
      std::runtime_error);
}

TEST(ParallelFor, CallerReturnsOnlyAfterEveryHelperLetsGo) {
  // A call's countdown lives in the caller's stack frame, and the next
  // call reuses that stack. A helper still inside its wake-up of the
  // caller after the caller saw the count reach zero would write into
  // the next call's frame; TSan (the sanitize label) reports that.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int call = 0; call < 2000; ++call) {
    parallel_for(
        pool, 0, 8,
        [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        },
        1);
  }
  EXPECT_EQ(total.load(), 2000 * 8);
}

TEST(ParallelReduce, SumsRange) {
  ThreadPool pool(4);
  const auto total = parallel_reduce<long long>(
      pool, 1, 1001, 0LL,
      [](std::size_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; }, 16);
  EXPECT_EQ(total, 500500LL);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const auto v = parallel_reduce<int>(
      pool, 3, 3, -7, [](std::size_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, -7);
}

TEST(GlobalPool, Works) {
  std::atomic<int> counter{0};
  parallel_for(0, 100, [&](std::size_t) { ++counter; }, 4);
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
