// Dense LU factorization with partial pivoting, plus helpers built on it:
// linear solve and the rank-1-constraint solve used for CTMC stationary
// distributions (pi Q = 0, sum pi = 1).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace wsn::linalg {

/// PA = LU factorization (Doolittle, partial pivoting).
class LuDecomposition {
 public:
  /// Factors `a`; throws NumericalError if the matrix is singular to
  /// machine precision.
  explicit LuDecomposition(Matrix a);

  /// Solve A x = b.
  std::vector<double> Solve(const std::vector<double>& b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// One-shot solve A x = b.
std::vector<double> SolveDense(const Matrix& a, const std::vector<double>& b);

/// Stationary distribution of a CTMC with generator Q (rows sum to 0):
/// solves pi Q = 0 with sum(pi) = 1 by replacing one column of Q^T with
/// ones.  `q` must be square.  Throws for non-square or singular systems
/// (e.g. reducible chains).
std::vector<double> StationaryFromGenerator(const Matrix& q);

}  // namespace wsn::linalg
