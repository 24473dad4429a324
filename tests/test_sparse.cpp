// CSR sparse matrix: COO conversion (incl. duplicate merging), matvec
// equivalence with dense, lookup and transpose application.
#include <gtest/gtest.h>

#include "linalg/sparse.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::linalg {
namespace {

TEST(CooBuilder, SkipsExplicitZeros) {
  CooBuilder coo(2, 2);
  coo.Add(0, 0, 0.0);
  coo.Add(1, 1, 2.0);
  EXPECT_EQ(coo.EntryCount(), 1u);
}

TEST(CooBuilder, RangeChecked) {
  CooBuilder coo(2, 2);
  EXPECT_THROW(coo.Add(2, 0, 1.0), util::InvalidArgument);
}

TEST(CsrMatrix, FromCooBasic) {
  CooBuilder coo(3, 3);
  coo.Add(0, 1, 2.0);
  coo.Add(2, 0, 5.0);
  coo.Add(1, 1, -1.0);
  const CsrMatrix csr(coo);
  EXPECT_EQ(csr.NonZeros(), 3u);
  EXPECT_DOUBLE_EQ(csr.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(csr.At(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(csr.At(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(csr.At(0, 0), 0.0);
}

TEST(CsrMatrix, DuplicatesAreSummed) {
  CooBuilder coo(2, 2);
  coo.Add(0, 0, 1.5);
  coo.Add(0, 0, 2.5);
  coo.Add(1, 0, 1.0);
  const CsrMatrix csr(coo);
  EXPECT_EQ(csr.NonZeros(), 2u);
  EXPECT_DOUBLE_EQ(csr.At(0, 0), 4.0);
}

TEST(CsrMatrix, EmptyRowsHandled) {
  CooBuilder coo(4, 4);
  coo.Add(0, 0, 1.0);
  coo.Add(3, 3, 2.0);  // rows 1, 2 empty
  const CsrMatrix csr(coo);
  std::size_t count = 0;
  csr.Row(1, &count);
  EXPECT_EQ(count, 0u);
  csr.Row(3, &count);
  EXPECT_EQ(count, 1u);
}

TEST(CsrMatrix, MatvecMatchesDenseOnRandomMatrix) {
  util::Rng rng(77);
  const std::size_t n = 30;
  Matrix dense(n, n, 0.0);
  CooBuilder coo(n, n);
  for (int k = 0; k < 150; ++k) {
    const auto r = util::UniformBelow(rng, n);
    const auto c = util::UniformBelow(rng, n);
    const double v = util::UniformDouble(rng) * 4.0 - 2.0;
    dense(r, c) += v;
    coo.Add(r, c, v);
  }
  const CsrMatrix csr(coo);
  std::vector<double> x(n);
  for (auto& xi : x) xi = util::UniformDouble(rng);

  const auto yd = dense.Apply(x);
  std::vector<double> ys;
  csr.ApplyInto(x, ys);
  const auto ydt = dense.ApplyTransposed(x);
  const auto yst = csr.ApplyTransposed(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(yd[i], ys[i], 1e-12);
    EXPECT_NEAR(ydt[i], yst[i], 1e-12);
  }
}

TEST(CsrMatrix, FromDenseAndBack) {
  const Matrix dense{{1.0, 0.0, 2.0}, {0.0, 0.0, 0.0}, {3.0, 0.0, 4.0}};
  const CsrMatrix csr(dense);
  EXPECT_EQ(csr.NonZeros(), 4u);
  const Matrix round = csr.ToDense();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(round(r, c), dense(r, c));
    }
  }
}

TEST(CsrMatrix, ApplyDimensionChecked) {
  CooBuilder coo(2, 3);
  coo.Add(0, 0, 1.0);
  const CsrMatrix csr(coo);
  std::vector<double> y;
  EXPECT_THROW(csr.ApplyInto({1.0, 2.0}, y), util::InvalidArgument);
  EXPECT_THROW(csr.ApplyTransposed({1.0, 2.0, 3.0}), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::linalg
