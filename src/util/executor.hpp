// ParallelExecutor: the one fan-out primitive behind every sweep and
// replication grid in this project.
//
// Any experiment that evaluates N independent jobs — analytic sweep
// points (core::SweepPowerDownThreshold), packet-level replications
// (netsim::RunReplications), scenario grids — maps them through an
// executor.  The contract that makes results bit-reproducible:
//
//   * job i's result lands at index i of the output vector, regardless
//     of which thread ran it or when it finished;
//   * randomness comes only from the jump-separated stream handed to
//     job i (MapSeeded), which depends on (seed, i) alone — never on
//     thread identity or scheduling;
//   * if several jobs throw, the exception from the *lowest* index is
//     rethrown after all jobs finish, so failures are deterministic too.
//
// An executor owns its pool: threads = 0 -> hardware concurrency, 1 ->
// strictly serial, with no pool at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wsn::util {

class ParallelExecutor {
 public:
  /// Own a pool of `threads` workers (0 = hardware concurrency).
  /// `threads == 1` runs jobs inline on the calling thread.
  explicit ParallelExecutor(std::size_t threads = 0);

  /// Worker count (1 when serial).
  std::size_t ThreadCount() const noexcept;

  bool Serial() const noexcept { return pool_ == nullptr; }

  /// Run fn(i) for i in [0, n); results in index order.  R must be
  /// default-constructible and movable.
  template <typename Fn>
  auto Map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "Map cannot return bool: std::vector<bool> packs bits, so "
                  "concurrent per-index writes would race; return char/int");
    std::vector<R> results(n);
    RunIndexed(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Run fn(i, rng_i) where rng_i is the i-th jump-separated stream of
  /// `seed` — the project-wide recipe for reproducible replications.
  template <typename Fn>
  auto MapSeeded(std::size_t n, std::uint64_t seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng>> {
    const Rng master(seed);
    return Map(n, [&](std::size_t i) { return fn(i, master.MakeStream(i)); });
  }

  /// Run fn(i) for side effects; same ordering/failure guarantees.
  void RunIndexed(std::size_t n,
                  const std::function<void(std::size_t)>& fn) const;

 private:
  std::unique_ptr<ThreadPool> pool_;  ///< null when serial
};

}  // namespace wsn::util
