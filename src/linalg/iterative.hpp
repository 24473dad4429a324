// Iterative stationary-vector solver for large sparse chains.
//
// For a CTMC generator Q, the stationary vector satisfies pi Q = 0.  We use
// Gauss–Seidel sweeps on the transposed system, so CSR storage of Q is
// enough.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace wsn::linalg {

struct IterativeOptions {
  std::size_t max_iterations = 200000;
  double tolerance = 1e-12;     // infinity-norm change between sweeps
  double relaxation = 1.0;      // SOR factor for Gauss-Seidel (1 = plain GS)
};

struct IterativeResult {
  std::vector<double> solution;
  std::size_t iterations = 0;
  double residual = 0.0;  // final change norm
  bool converged = false;
};

/// Gauss–Seidel (optionally SOR) on pi Q = 0 with normalization after each
/// sweep.
IterativeResult StationaryGaussSeidel(const CsrMatrix& q,
                                      const IterativeOptions& opts = {});

}  // namespace wsn::linalg
