#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace wsn::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.Submit([i, &fn] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  if (threads > 1) {
    ThreadPool pool(threads);
    ParallelFor(pool, n, fn);
    return;
  }
  // One worker: run on the calling thread with the pool's contract (every
  // index runs; the lowest failing index rethrows).
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wsn::util
