// LU factorization, linear solve residuals on random systems and the
// stationary-vector helper.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::linalg {
namespace {

TEST(Lu, SolvesHandComputedSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto x = SolveDense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolvesSystemNeedingPivoting) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = SolveDense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, util::NumericalError);
}

TEST(Lu, NonSquareRejected) {
  EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, util::InvalidArgument);
}

// Property: random diagonally dominant systems solve with tiny residual.
class LuRandomSystems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSystems, ResidualSmall) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = util::UniformDouble(rng) * 2.0 - 1.0;
      row_sum += std::abs(a(r, c));
    }
    a(r, r) += row_sum + 1.0;  // dominance ensures non-singularity
  }
  std::vector<double> b(n);
  for (auto& v : b) v = util::UniformDouble(rng) * 10.0 - 5.0;

  const auto x = SolveDense(a, b);
  const auto ax = a.Apply(x);
  EXPECT_LT(NormInf(Subtract(ax, b)), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystems,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60, 120));

TEST(Stationary, TwoStateGenerator) {
  // 0 -> 1 at rate 2, 1 -> 0 at rate 1: pi = (1/3, 2/3).
  const Matrix q{{-2.0, 2.0}, {1.0, -1.0}};
  const auto pi = StationaryFromGenerator(q);
  EXPECT_NEAR(pi[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(pi[1], 2.0 / 3.0, 1e-12);
}

TEST(Stationary, ThreeStateCycle) {
  // Uniform cycle: stationary is uniform.
  const Matrix q{{-1.0, 1.0, 0.0}, {0.0, -1.0, 1.0}, {1.0, 0.0, -1.0}};
  const auto pi = StationaryFromGenerator(q);
  for (double p : pi) EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
}

TEST(Stationary, ProbabilitiesSumToOneAndNonNegative) {
  util::Rng rng(9);
  const std::size_t n = 12;
  Matrix q(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      q(i, j) = util::UniformDouble(rng) * 2.0 + 0.01;  // irreducible
      q(i, i) -= q(i, j);
    }
  }
  const auto pi = StationaryFromGenerator(q);
  double sum = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Verify pi Q = 0.
  const auto residual = q.ApplyTransposed(pi);
  EXPECT_LT(NormInf(residual), 1e-10);
}

}  // namespace
}  // namespace wsn::linalg
