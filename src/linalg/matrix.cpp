#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wsn::linalg {

using util::NumericalError;
using util::Require;

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    Require(row.size() == cols_, "ragged initializer list for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::vector<double> Matrix::Apply(const std::vector<double>& x) const {
  Require(x.size() == cols_, "Matrix::Apply dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::ApplyTransposed(const std::vector<double>& x) const {
  Require(x.size() == rows_, "Matrix::ApplyTransposed dimension mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * row[c];
  }
  return y;
}

double NormInf(const std::vector<double>& v) noexcept {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  Require(a.size() == b.size(), "Subtract dimension mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

void NormalizeProbability(std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    throw NumericalError("cannot normalize: vector sum is not positive");
  }
  for (double& x : v) x /= sum;
}

}  // namespace wsn::linalg
