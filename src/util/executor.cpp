#include "util/executor.hpp"

namespace wsn::util {

ParallelExecutor::ParallelExecutor(std::size_t threads) {
  if (threads == 1) return;  // serial: no pool
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::size_t ParallelExecutor::ThreadCount() const noexcept {
  return pool_ == nullptr ? 1 : pool_->ThreadCount();
}

void ParallelExecutor::RunIndexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (pool_ == nullptr) {
    // Serial: the first throw is by construction the lowest failing index.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Parallel: let every job run to completion, record failures per index,
  // then rethrow the lowest-index one — identical to what a serial run
  // would have surfaced first.
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool_->Submit([i, &fn, &errors] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }));
  }
  for (auto& f : futures) f.get();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wsn::util
