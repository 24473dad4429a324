// The M/M/1 and M/M/1/K reference formulas that other suites use as
// oracles, cross-validated against the generic CTMC solver.
#include <gtest/gtest.h>

#include <cmath>

#include "markov/ctmc.hpp"
#include "markov/mm1.hpp"
#include "util/error.hpp"

namespace wsn::markov {
namespace {

class Mm1Cases : public ::testing::TestWithParam<double> {};

TEST_P(Mm1Cases, ClassicalIdentities) {
  const double rho = GetParam();
  const Mm1 q{rho, 1.0};
  EXPECT_NEAR(q.Rho(), rho, 1e-12);
  EXPECT_NEAR(q.P0(), 1.0 - rho, 1e-12);
  EXPECT_NEAR(q.MeanJobs(), rho / (1.0 - rho), 1e-12);
  EXPECT_NEAR(q.MeanQueue(), q.MeanJobs() - rho, 1e-12);
  // Little's law consistency.
  EXPECT_NEAR(q.MeanLatency() * q.lambda, q.MeanJobs(), 1e-12);
  EXPECT_NEAR(q.MeanWait(), q.MeanLatency() - 1.0 / q.mu, 1e-12);
  // Pn is geometric and sums to 1.
  double sum = 0.0;
  for (std::size_t n = 0; n < 200; ++n) sum += q.Pn(n);
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Loads, Mm1Cases,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(Mm1, UnstableThrows) {
  const Mm1 q{2.0, 1.0};
  EXPECT_THROW(q.MeanJobs(), util::InvalidArgument);
}

TEST(Mm1k, DistributionSumsToOne) {
  const Mm1k q{1.0, 2.0, 5};
  double sum = 0.0;
  for (std::size_t n = 0; n <= 5; ++n) sum += q.Pn(n);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.Pn(6), 0.0);
}

TEST(Mm1k, CriticalLoadIsUniform) {
  const Mm1k q{1.0, 1.0, 4};
  for (std::size_t n = 0; n <= 4; ++n) {
    EXPECT_NEAR(q.Pn(n), 0.2, 1e-12);
  }
}

TEST(Mm1k, MatchesCtmc) {
  const double lambda = 0.8, mu = 1.0;
  const std::size_t k = 7;
  const Mm1k q{lambda, mu, k};

  Ctmc chain(k + 1);
  for (std::size_t n = 0; n < k; ++n) {
    chain.AddRate(n, n + 1, lambda);
    chain.AddRate(n + 1, n, mu);
  }
  const auto pi = chain.StationaryDistribution();
  double mean = 0.0;
  for (std::size_t n = 0; n <= k; ++n) {
    EXPECT_NEAR(q.Pn(n), pi[n], 1e-10);
    mean += static_cast<double>(n) * pi[n];
  }
  EXPECT_NEAR(q.MeanJobs(), mean, 1e-10);
  EXPECT_NEAR(q.BlockingProbability(), pi[k], 1e-10);
  EXPECT_NEAR(q.Utilization(), 1.0 - pi[0], 1e-10);
  EXPECT_NEAR(q.Throughput(), lambda * (1.0 - pi[k]), 1e-10);
}

TEST(Mm1k, ConvergesToMm1AsCapacityGrows) {
  const Mm1 unbounded{0.5, 1.0};
  const Mm1k bounded{0.5, 1.0, 60};
  EXPECT_NEAR(bounded.MeanJobs(), unbounded.MeanJobs(), 1e-9);
  EXPECT_LT(bounded.BlockingProbability(), 1e-15);
}

}  // namespace
}  // namespace wsn::markov
