// Thread pool: completion, result propagation, exception forwarding and
// parallel-for semantics under contention; ParallelExecutor: ordering,
// seeded streams and deterministic failure surfacing.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wsn::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ThreadCountAsRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ThreadCount(), 3u);
}

TEST(ThreadPool, DefaultUsesAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.ThreadCount(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(1000, [&](std::size_t i) { ++visits[i]; }, 8);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, WorksWithSingleItem) {
  int called = 0;
  ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++called;
  });
  EXPECT_EQ(called, 1);
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SumsMatchSequential) {
  std::vector<double> out(500);
  ParallelFor(500, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  }, 4);
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 499.0 * 500.0);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(100, [](std::size_t i) {
        if (i == 37) throw std::logic_error("fail at 37");
      }, 4),
      std::logic_error);
}

TEST(ParallelFor, OneThreadRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  ParallelFor(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  }, 1);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, OneThreadRunsEveryIndexAndRethrowsTheLowestFailure) {
  std::vector<int> visits(10, 0);
  try {
    ParallelFor(visits.size(), [&](std::size_t i) {
      ++visits[i];
      if (i == 3 || i == 6) {
        throw std::runtime_error("failed at " + std::to_string(i));
      }
    }, 1);
    FAIL() << "expected the failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failed at 3");
  }
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, ReusablePool) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  ParallelFor(pool, 50, [&](std::size_t) { ++counter; });
  ParallelFor(pool, 50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitPropagatesExceptionsOfValueTasks) {
  // The exception travels through the returned future even when the task
  // has a non-void result type and other tasks succeed around it.
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return std::string("fine"); });
  auto bad = pool.Submit(
      []() -> std::string { throw std::invalid_argument("task failed"); });
  EXPECT_EQ(ok.get(), "fine");
  try {
    bad.get();
    FAIL() << "expected the future to rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
}

TEST(ParallelExecutor, MapKeepsIndexOrder) {
  ParallelExecutor executor(4);
  const std::vector<std::size_t> out =
      executor.Map(100, [](std::size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(ParallelExecutor, SerialWhenOneThread) {
  ParallelExecutor executor(1);
  EXPECT_TRUE(executor.Serial());
  EXPECT_EQ(executor.ThreadCount(), 1u);
  EXPECT_EQ(executor.Map(3, [](std::size_t i) { return i; }),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelExecutor, OwnsAPoolOfTheRequestedSize) {
  ParallelExecutor executor(3);
  EXPECT_FALSE(executor.Serial());
  EXPECT_EQ(executor.ThreadCount(), 3u);
  std::atomic<int> counter{0};
  executor.RunIndexed(20, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelExecutor, SeededStreamsMatchSerialAndParallel) {
  // The i-th job's randomness is a pure function of (seed, i): the draw
  // sequence must be identical whatever the thread count.
  const auto draw = [](ParallelExecutor& executor) {
    return executor.MapSeeded(
        16, 2008, [](std::size_t, Rng rng) { return rng(); });
  };
  ParallelExecutor serial(1);
  ParallelExecutor parallel(8);
  EXPECT_EQ(draw(serial), draw(parallel));
}

TEST(ParallelExecutor, SurfacesLowestIndexFailureDeterministically) {
  // Several jobs fail; no matter which thread hits its error first, the
  // rethrown exception is always the lowest failing index's.
  ParallelExecutor executor(8);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      executor.RunIndexed(64, [](std::size_t i) {
        if (i == 7 || i == 23 || i == 55) {
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      FAIL() << "expected a failure to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 7");
    }
  }
}

TEST(ParallelExecutor, RunsEveryJobDespiteFailures) {
  ParallelExecutor executor(4);
  std::atomic<int> started{0};
  EXPECT_THROW(executor.RunIndexed(32,
                                   [&](std::size_t i) {
                                     ++started;
                                     if (i % 2 == 0) {
                                       throw std::runtime_error("even");
                                     }
                                   }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 32);
}

}  // namespace
}  // namespace wsn::util
