// Minimal fixed-size thread pool used to run independent simulation
// replications in parallel.
//
// Design notes (per the HPC guidance this project follows): work items are
// coarse (one whole replication each, seconds of CPU), so a single mutex-
// protected queue is the right tool — no work stealing, no lock-free
// cleverness, no false-sharing hazards.  Determinism is preserved because
// each replication owns an independent, jump-separated RNG stream keyed by
// its replication index, not by thread identity.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wsn::util {

class ThreadPool {
 public:
  /// Spawn `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t ThreadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves when it completes.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool is stopping");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run `fn(i)` for i in [0, n) across the pool, blocking until all finish.
/// Exceptions from tasks propagate (the first one encountered rethrows).
void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/// Convenience for callers that don't manage a pool: run `fn(i)` for
/// i in [0, n) on up to `threads` threads (0 = hardware concurrency).
/// With one thread (or one item) it runs on the calling thread and spawns
/// nothing.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t threads = 0);

}  // namespace wsn::util
