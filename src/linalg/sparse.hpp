// Compressed sparse row matrix with a coordinate-format builder.
// CTMC generators from Petri-net reachability graphs are very sparse
// (out-degree bounded by the number of transitions), so steady-state
// solves on nets with >~2000 tangible markings go through this path.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace wsn::linalg {

/// Coordinate-format triplet accumulator.  Duplicate (row, col) entries
/// are summed when converting to CSR.
class CooBuilder {
 public:
  CooBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  void Add(std::size_t r, std::size_t c, double v);

  std::size_t Rows() const noexcept { return rows_; }
  std::size_t Cols() const noexcept { return cols_; }
  std::size_t EntryCount() const noexcept { return rows_idx_.size(); }

  friend class CsrMatrix;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> rows_idx_;
  std::vector<std::size_t> cols_idx_;
  std::vector<double> values_;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compress a COO builder (duplicates summed, zeros kept out).
  explicit CsrMatrix(const CooBuilder& coo);

  /// Densify a dense matrix (for tests).
  explicit CsrMatrix(const Matrix& dense, double zero_tol = 0.0);

  std::size_t Rows() const noexcept { return rows_; }
  std::size_t Cols() const noexcept { return cols_; }
  std::size_t NonZeros() const noexcept { return values_.size(); }

  /// y = A x into a caller-provided buffer (resized to Rows()) — the
  /// allocation-free form iterative hot loops (e.g. the incremental
  /// uniformization solver) call once per series term.
  void ApplyInto(const std::vector<double>& x, std::vector<double>& y) const;

  /// y = A^T x.
  std::vector<double> ApplyTransposed(const std::vector<double>& x) const;

  /// Entry lookup (O(log nnz_row)); zero when absent.
  double At(std::size_t r, std::size_t c) const;

  Matrix ToDense() const;

  /// Row r's column indices / values (parallel spans).
  std::pair<const std::size_t*, const double*> Row(std::size_t r,
                                                   std::size_t* count) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace wsn::linalg
