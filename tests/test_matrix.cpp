// Dense matrix construction, products with vectors and vector helpers.
#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "util/error.hpp"

namespace wsn::linalg {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.Rows(), 2u);
  EXPECT_EQ(m.Cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerRejected) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), util::InvalidArgument);
}

TEST(Matrix, ApplyAndApplyTransposed) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> x{1.0, 1.0};
  const auto y = a.Apply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const auto z = a.ApplyTransposed(x);  // row vector times A
  EXPECT_DOUBLE_EQ(z[0], 4.0);
  EXPECT_DOUBLE_EQ(z[1], 6.0);
}

TEST(VectorOps, NormInfAndSubtract) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 7.0};
  const auto d = Subtract(a, b);
  EXPECT_DOUBLE_EQ(d[2], -4.0);
  EXPECT_DOUBLE_EQ(NormInf(d), 4.0);
  EXPECT_THROW(Subtract(a, {1.0}), util::InvalidArgument);
}

TEST(VectorOps, NormalizeProbability) {
  std::vector<double> v{1.0, 3.0};
  NormalizeProbability(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(NormalizeProbability(zero), util::NumericalError);
}

}  // namespace
}  // namespace wsn::linalg
