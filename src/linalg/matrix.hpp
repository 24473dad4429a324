// Dense row-major matrix.  Sized for the CTMC generator matrices this
// project solves (up to a few thousand states dense; larger chains go
// through the sparse path in sparse.hpp / iterative.hpp).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace wsn::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t Rows() const noexcept { return rows_; }
  std::size_t Cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// y = A x.
  std::vector<double> Apply(const std::vector<double>& x) const;

  /// y = A^T x (i.e. x as a row vector times A).
  std::vector<double> ApplyTransposed(const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Infinity norm.
double NormInf(const std::vector<double>& v) noexcept;

/// a - b.
std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Scale in place so entries sum to 1 (probability normalization).
/// Throws NumericalError if the sum is not positive.
void NormalizeProbability(std::vector<double>& v);

}  // namespace wsn::linalg
