// Iterative stationary solver: agreement with the dense solver on random
// ergodic chains, convergence flags, and SOR parameter validation.
#include <gtest/gtest.h>

#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::linalg {
namespace {

Matrix RandomGenerator(std::size_t n, std::uint64_t seed, double density) {
  util::Rng rng(seed);
  Matrix q(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Ring edges always present so the chain is irreducible even at low
      // density.
      const bool ring = (j == (i + 1) % n);
      if (ring || util::UniformDouble(rng) < density) {
        q(i, j) = util::UniformDouble(rng) * 3.0 + 0.05;
        q(i, i) -= q(i, j);
      }
    }
  }
  return q;
}

class IterativeVsDense
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(IterativeVsDense, GaussSeidelMatchesLu) {
  const auto [n, density] = GetParam();
  const Matrix q = RandomGenerator(n, 40 + n, density);
  const auto exact = StationaryFromGenerator(q);
  const auto result = StationaryGaussSeidel(CsrMatrix(q));
  ASSERT_TRUE(result.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.solution[i], exact[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChainShapes, IterativeVsDense,
    ::testing::Combine(::testing::Values<std::size_t>(3, 8, 20, 50),
                       ::testing::Values(0.1, 0.5, 0.9)));

TEST(GaussSeidel, SorRelaxationWithinRange) {
  const Matrix q = RandomGenerator(10, 7, 0.5);
  IterativeOptions opts;
  opts.relaxation = 1.2;
  const auto result = StationaryGaussSeidel(CsrMatrix(q), opts);
  EXPECT_TRUE(result.converged);
  opts.relaxation = 2.5;
  EXPECT_THROW(StationaryGaussSeidel(CsrMatrix(q), opts),
               util::InvalidArgument);
}

TEST(GaussSeidel, ReportsIterationCount) {
  const Matrix q = RandomGenerator(10, 3, 0.4);
  const auto result = StationaryGaussSeidel(CsrMatrix(q));
  EXPECT_GT(result.iterations, 0u);
  EXPECT_LT(result.residual, 1e-11);
}

TEST(GaussSeidel, SolutionIsProbabilityVector) {
  const Matrix q = RandomGenerator(25, 11, 0.3);
  const auto result = StationaryGaussSeidel(CsrMatrix(q));
  double sum = 0.0;
  for (double p : result.solution) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Iterative, RejectsNonSquare) {
  CooBuilder coo(2, 3);
  coo.Add(0, 0, 1.0);
  EXPECT_THROW(StationaryGaussSeidel(CsrMatrix(coo)), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::linalg
