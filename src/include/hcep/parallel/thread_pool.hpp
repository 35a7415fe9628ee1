// A small work-stealing-free thread pool plus blocked parallel_for /
// parallel_reduce helpers. The configuration-space sweeps enumerate
// millions of cluster configurations, evaluate the time-energy model on
// each and then scan the results for the Pareto front, the fastest
// configuration and the deadline pick; every one of those loops runs
// through this pool.
//
// parallel_for claims chunks off a shared atomic counter: the pool
// receives one fire-and-forget task per participating worker (plus the
// calling thread, which also claims chunks), so dispatch cost is
// O(threads), not O(range / block). Each task is a one-pointer closure
// that std::function stores inline, and the caller waits on a countdown
// in its own stack frame, so a warm dispatch allocates nothing (the task
// queue's deque only allocates a node per 16 tasks). parallel_reduce
// runs its blocks through parallel_for and combines their partial
// results in block order.
//
// Nested use is safe: a parallel_for or parallel_reduce issued from inside
// a pool worker executes inline on that worker instead of enqueueing onto
// — and then deadlocking against — its own queue.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hcep {

/// Fixed-size thread pool executing std::function tasks FIFO.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of THIS pool's workers — the
  /// nested-parallelism guard (see file comment).
  [[nodiscard]] bool on_worker_thread() const;

  /// Enqueues a task with no result and no future. A trivially copyable
  /// callable of at most two pointers is stored inside the
  /// std::function, so posting one allocates nothing itself.
  void post(std::function<void()> task);

  /// Enqueues a task; returns a future for its result.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Process-wide default pool (lazily constructed, never destroyed before
  /// main returns).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs f(i) for i in [begin, end) across the pool, workers claiming
/// contiguous chunks of at least `min_block` iterations from an atomic
/// counter. Blocks until every iteration completes; the calling thread
/// participates. Executes inline when the range is small, the pool has a
/// single thread, or the caller is itself a pool worker (nested use).
/// Exceptions from iterations are rethrown (the first one encountered);
/// remaining chunks are abandoned once an exception is recorded.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& f,
                  std::size_t min_block = 64);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& f,
                  std::size_t min_block = 64);

/// Blocked map-reduce: applies `map(i)` to [begin, end) and combines partial
/// results with `combine`, starting from `init` per block. The blocks run
/// through parallel_for, each into its own partial, and the partials are
/// combined in block order, so a `combine` that is associative gives the
/// serial left fold's result. Executes inline when called from inside a
/// pool worker (nested use; see parallel_for).
template <class T, class Map, class Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
                  Map map, Combine combine, std::size_t min_block = 64) {
  if (begin >= end) return init;
  const std::size_t n = end - begin;
  const std::size_t max_blocks = pool.size() * 4;
  const std::size_t block =
      std::max(min_block, (n + max_blocks - 1) / max_blocks);
  if (n <= block || pool.size() == 1 || pool.on_worker_thread()) {
    T acc = init;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  std::vector<T> partials((n + block - 1) / block, init);
  auto reduce_block = [&](std::size_t b) {
    const std::size_t lo = begin + b * block;
    const std::size_t hi = std::min(lo + block, end);
    // Accumulate in a local: stores into partials[b] on every row would
    // contend for the cache lines it shares with neighbouring blocks.
    T acc = init;
    for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    partials[b] = acc;
  };
  parallel_for(pool, 0, partials.size(), std::ref(reduce_block), 1);
  T acc = init;
  for (const T& partial : partials) acc = combine(acc, partial);
  return acc;
}

}  // namespace hcep
