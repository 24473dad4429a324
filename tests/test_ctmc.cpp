// CTMC: stationary solutions against closed forms, transient analysis via
// uniformization against analytical two-state results.
#include <gtest/gtest.h>

#include <cmath>

#include "markov/ctmc.hpp"
#include "util/error.hpp"

namespace wsn::markov {
namespace {

TEST(Ctmc, TwoStateStationary) {
  Ctmc chain(2);
  chain.AddRate(0, 1, 2.0);
  chain.AddRate(1, 0, 1.0);
  const auto pi = chain.StationaryDistribution();
  EXPECT_NEAR(pi[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(pi[1], 2.0 / 3.0, 1e-12);
}

TEST(Ctmc, RepeatedAddRateAccumulates) {
  Ctmc chain(2);
  chain.AddRate(0, 1, 1.0);
  chain.AddRate(0, 1, 1.0);  // total rate 2
  chain.AddRate(1, 0, 1.0);
  const auto pi = chain.StationaryDistribution();
  EXPECT_NEAR(pi[0], 1.0 / 3.0, 1e-12);
}

TEST(Ctmc, MmOneTruncatedStationary) {
  // M/M/1/K with lambda=1, mu=2 as a CTMC: pi_n ~ rho^n.
  const double lambda = 1.0, mu = 2.0;
  const std::size_t k = 10;
  Ctmc chain(k + 1);
  for (std::size_t n = 0; n < k; ++n) {
    chain.AddRate(n, n + 1, lambda);
    chain.AddRate(n + 1, n, mu);
  }
  const auto pi = chain.StationaryDistribution();
  const double rho = lambda / mu;
  for (std::size_t n = 1; n <= k; ++n) {
    EXPECT_NEAR(pi[n] / pi[n - 1], rho, 1e-10);
  }
}

TEST(Ctmc, SparsePathMatchesDense) {
  // Force the Gauss-Seidel path by setting a tiny dense threshold.
  Ctmc chain(6);
  for (std::size_t i = 0; i < 6; ++i) {
    chain.AddRate(i, (i + 1) % 6, 1.0 + i * 0.3);
    chain.AddRate(i, (i + 2) % 6, 0.5);
  }
  const auto dense = chain.StationaryDistribution(512);
  const auto sparse = chain.StationaryDistribution(1);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(dense[i], sparse[i], 1e-8);
  }
}

TEST(Ctmc, TransientTwoStateAnalytical) {
  // For rates a (0->1), b (1->0): p01(t) = a/(a+b) (1 - e^{-(a+b)t}).
  const double a = 2.0, b = 1.0;
  Ctmc chain(2);
  chain.AddRate(0, 1, a);
  chain.AddRate(1, 0, b);
  for (double t : {0.0, 0.1, 0.5, 1.0, 3.0}) {
    const auto p = chain.TransientDistribution({1.0, 0.0}, t);
    const double expected = a / (a + b) * (1.0 - std::exp(-(a + b) * t));
    EXPECT_NEAR(p[1], expected, 1e-8) << "t=" << t;
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  }
}

TEST(Ctmc, TransientConvergesToStationary) {
  Ctmc chain(3);
  chain.AddRate(0, 1, 1.0);
  chain.AddRate(1, 2, 2.0);
  chain.AddRate(2, 0, 3.0);
  chain.AddRate(2, 1, 0.5);
  const auto pi = chain.StationaryDistribution();
  const auto p = chain.TransientDistribution({1.0, 0.0, 0.0}, 200.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p[i], pi[i], 1e-6);
}

TEST(Ctmc, TransientAtZeroIsInitial) {
  Ctmc chain(2);
  chain.AddRate(0, 1, 1.0);
  chain.AddRate(1, 0, 1.0);
  const auto p = chain.TransientDistribution({0.25, 0.75}, 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
}

TEST(Ctmc, InvalidUsageThrows) {
  Ctmc chain(2);
  EXPECT_THROW(chain.AddRate(0, 0, 1.0), util::InvalidArgument);  // self loop
  EXPECT_THROW(chain.AddRate(0, 5, 1.0), util::InvalidArgument);
  EXPECT_THROW(chain.AddRate(0, 1, -1.0), util::InvalidArgument);
  EXPECT_THROW(chain.StationaryDistribution(), util::ModelError);  // no edges
  EXPECT_THROW(chain.TransientDistribution({1.0}, 1.0),
               util::InvalidArgument);  // dim mismatch
}

TEST(Ctmc, GeneratorRowsSumToZero) {
  Ctmc chain(4);
  chain.AddRate(0, 1, 1.5);
  chain.AddRate(1, 2, 0.7);
  chain.AddRate(2, 3, 2.0);
  chain.AddRate(3, 0, 0.1);
  const auto q = chain.Generator();
  for (std::size_t i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 4; ++j) sum += q(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
  // Sparse and dense generators agree.
  const auto qs = chain.SparseGenerator().ToDense();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(qs(i, j), q(i, j));
    }
  }
}

}  // namespace
}  // namespace wsn::markov
