#include "linalg/iterative.hpp"

#include <cmath>

#include "linalg/matrix.hpp"
#include "util/error.hpp"

namespace wsn::linalg {

using util::Require;

namespace {

/// Explicit transpose (CSR of Q^T) so Gauss–Seidel gets row access to Q^T.
CsrMatrix TransposeCsr(const CsrMatrix& a) {
  CooBuilder coo(a.Cols(), a.Rows());
  for (std::size_t r = 0; r < a.Rows(); ++r) {
    std::size_t count = 0;
    auto [cols, vals] = a.Row(r, &count);
    for (std::size_t k = 0; k < count; ++k) {
      coo.Add(cols[k], r, vals[k]);
    }
  }
  return CsrMatrix(coo);
}

}  // namespace

IterativeResult StationaryGaussSeidel(const CsrMatrix& q,
                                      const IterativeOptions& opts) {
  Require(q.Rows() == q.Cols() && q.Rows() > 0, "generator must be square");
  const std::size_t n = q.Rows();
  const CsrMatrix qt = TransposeCsr(q);
  const double omega = opts.relaxation;
  Require(omega > 0.0 && omega < 2.0, "SOR relaxation must be in (0,2)");

  IterativeResult result;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    double change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Row i of Q^T: sum_j Q(j,i) pi_j = 0  =>
      // pi_i = -(sum_{j != i} Q(j,i) pi_j) / Q(i,i).
      std::size_t count = 0;
      auto [cols, vals] = qt.Row(i, &count);
      double off = 0.0;
      double diag = 0.0;
      for (std::size_t k = 0; k < count; ++k) {
        if (cols[k] == i) {
          diag = vals[k];
        } else {
          off += vals[k] * pi[cols[k]];
        }
      }
      if (diag == 0.0) continue;  // absorbing-ish state; leave as-is
      const double updated = -off / diag;
      const double next = (1.0 - omega) * pi[i] + omega * updated;
      change = std::max(change, std::abs(next - pi[i]));
      pi[i] = next;
    }
    double sum = 0.0;
    for (double p : pi) sum += p;
    if (sum > 0.0) {
      for (double& p : pi) p /= sum;
    }
    result.iterations = it + 1;
    result.residual = change;
    if (change < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  for (double& p : pi) {
    if (p < 0.0) p = 0.0;
  }
  NormalizeProbability(pi);
  result.solution = std::move(pi);
  return result;
}

}  // namespace wsn::linalg
