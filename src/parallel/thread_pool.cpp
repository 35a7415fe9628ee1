#include "hcep/parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "hcep/obs/obs.hpp"

namespace hcep {

namespace {
/// Set for the lifetime of a worker thread; lets parallel helpers detect
/// that they are already running on a pool worker and must not block on
/// that pool's queue (nested parallelism would deadlock otherwise).
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    // Workers have no thread-local observer; obs::current() resolves to
    // the process-wide sink when one is installed. Re-queried per task so
    // an observer installed mid-run is picked up.
    //
    // The wait is booked to the observer resolved here, before it began:
    // one cleared or replaced with obs::set_global meanwhile is still
    // written when this worker wakes, so it must outlive that wait (see
    // obs::set_global).
    obs::Observer* o = obs::current();
    const auto idle_from = o != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (o != nullptr) {
      const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - idle_from);
      o->metrics.add(o->metrics.counter("pool.idle_ns"),
                     static_cast<std::uint64_t>(waited.count()));
      o->metrics.add(o->metrics.counter("pool.tasks"));
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& f,
                  std::size_t min_block) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Chunk granularity: honor min_block but cap the number of chunks so the
  // shared counter is touched O(threads), not O(n), times.
  const std::size_t chunk =
      std::max({std::size_t{1}, min_block, n / (pool.size() * 32)});

  if (n <= chunk || pool.size() == 1 || pool.on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }

  struct SweepState {
    std::atomic<std::size_t> next;
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  } state;
  state.next.store(begin, std::memory_order_relaxed);

  auto claim_chunks = [&state, &f, end, chunk] {
    for (;;) {
      if (state.failed.load(std::memory_order_relaxed)) return;
      const std::size_t lo =
          state.next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = std::min(lo + chunk, end);
      try {
        for (std::size_t i = lo; i < hi; ++i) f(i);
      } catch (...) {
        std::lock_guard lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
        state.failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // One claiming task per worker that can usefully participate; the
  // calling thread claims chunks too, so a busy pool never stalls the
  // sweep — the caller just ends up doing most of the work itself.
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers = std::min(pool.size(), chunks - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    futures.push_back(pool.submit(claim_chunks));
  claim_chunks();
  // Helper tasks trap their exceptions into `state`, so get() only joins.
  for (auto& fut : futures) fut.get();
  if (state.error) std::rethrow_exception(state.error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& f,
                  std::size_t min_block) {
  parallel_for(ThreadPool::global(), begin, end, f, min_block);
}

}  // namespace hcep
