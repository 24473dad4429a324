#include "linalg/lu.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsn::linalg {

using util::NumericalError;
using util::Require;

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  Require(lu_.Rows() == lu_.Cols(), "LU requires a square matrix");
  const std::size_t n = lu_.Rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best < 1e-300) {
      throw NumericalError("LU: matrix is singular to machine precision");
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(k, j), lu_(pivot, j));
      }
      std::swap(perm_[k], perm_[pivot]);
    }
    const double pivot_value = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) / pivot_value;
      lu_(i, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= factor * lu_(k, j);
      }
    }
  }
}

std::vector<double> LuDecomposition::Solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.Rows();
  Require(b.size() == n, "LU solve dimension mismatch");
  std::vector<double> x(n);
  // Forward substitution on permuted b (L has implicit unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc / lu_(i, i);
  }
  return x;
}

std::vector<double> SolveDense(const Matrix& a, const std::vector<double>& b) {
  return LuDecomposition(a).Solve(b);
}

std::vector<double> StationaryFromGenerator(const Matrix& q) {
  Require(q.Rows() == q.Cols(), "generator must be square");
  const std::size_t n = q.Rows();
  Require(n > 0, "generator must be non-empty");
  // Solve x A = b with A = Q where the last column is replaced by the
  // normalization constraint.  Work with the transpose: A^T y = e_n.
  Matrix at(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // A(i, j) = Q(i, j) for j < n-1; A(i, n-1) = 1.
      at(j, i) = (j + 1 == n) ? 1.0 : q(i, j);
    }
  }
  std::vector<double> rhs(n, 0.0);
  rhs[n - 1] = 1.0;
  std::vector<double> pi = LuDecomposition(std::move(at)).Solve(rhs);
  // Numerical cleanup: clamp tiny negatives, renormalize.
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-9) p = 0.0;
  }
  NormalizeProbability(pi);
  return pi;
}

}  // namespace wsn::linalg
