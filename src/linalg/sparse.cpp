#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace wsn::linalg {

using util::Require;

void CooBuilder::Add(std::size_t r, std::size_t c, double v) {
  Require(r < rows_ && c < cols_, "CooBuilder::Add out of range");
  if (v == 0.0) return;
  rows_idx_.push_back(r);
  cols_idx_.push_back(c);
  values_.push_back(v);
}

CsrMatrix::CsrMatrix(const CooBuilder& coo)
    : rows_(coo.rows_), cols_(coo.cols_) {
  const std::size_t nnz_in = coo.values_.size();
  std::vector<std::size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (coo.rows_idx_[a] != coo.rows_idx_[b])
      return coo.rows_idx_[a] < coo.rows_idx_[b];
    return coo.cols_idx_[a] < coo.cols_idx_[b];
  });

  row_ptr_.assign(rows_ + 1, 0);
  col_idx_.reserve(nnz_in);
  values_.reserve(nnz_in);
  std::size_t last_r = rows_;  // sentinel: no previous entry
  std::size_t last_c = 0;
  for (std::size_t k = 0; k < nnz_in; ++k) {
    const std::size_t i = order[k];
    const std::size_t r = coo.rows_idx_[i];
    const std::size_t c = coo.cols_idx_[i];
    const double v = coo.values_[i];
    if (r == last_r && c == last_c) {
      values_.back() += v;  // duplicate (r, c): accumulate
    } else {
      col_idx_.push_back(c);
      values_.push_back(v);
      row_ptr_[r + 1] = values_.size();
      last_r = r;
      last_c = c;
    }
  }
  // row_ptr_[r+1] holds the cumulative nnz through row r for rows with
  // entries; fill gaps (rows without entries inherit the previous value).
  // Rows with duplicates merged need the count refreshed too.
  for (std::size_t r = 1; r <= rows_; ++r) {
    row_ptr_[r] = std::max(row_ptr_[r], row_ptr_[r - 1]);
  }
  row_ptr_[rows_] = values_.size();
  for (std::size_t r = rows_; r-- > 0;) {
    if (row_ptr_[r] > row_ptr_[r + 1]) row_ptr_[r] = row_ptr_[r + 1];
  }
}

CsrMatrix::CsrMatrix(const Matrix& dense, double zero_tol)
    : rows_(dense.Rows()), cols_(dense.Cols()) {
  row_ptr_.assign(rows_ + 1, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const double v = dense(r, c);
      if (std::abs(v) > zero_tol) {
        col_idx_.push_back(c);
        values_.push_back(v);
      }
    }
    row_ptr_[r + 1] = values_.size();
  }
}

void CsrMatrix::ApplyInto(const std::vector<double>& x,
                          std::vector<double>& y) const {
  Require(x.size() == cols_, "CsrMatrix::ApplyInto dimension mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::ApplyTransposed(
    const std::vector<double>& x) const {
  Require(x.size() == rows_, "CsrMatrix::ApplyTransposed dimension mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += xr * values_[k];
    }
  }
  return y;
}

double CsrMatrix::At(std::size_t r, std::size_t c) const {
  Require(r < rows_ && c < cols_, "CsrMatrix::At out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

std::pair<const std::size_t*, const double*> CsrMatrix::Row(
    std::size_t r, std::size_t* count) const {
  Require(r < rows_, "CsrMatrix::Row out of range");
  *count = row_ptr_[r + 1] - row_ptr_[r];
  return {col_idx_.data() + row_ptr_[r], values_.data() + row_ptr_[r]};
}

}  // namespace wsn::linalg
