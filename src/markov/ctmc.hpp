// Continuous-time Markov chain: construction, stationary analysis and
// transient analysis (uniformization).
//
// This is both a standalone modeling tool and the numerical back end of the
// Petri-net solver: an exponential-only SPN reduces to a CTMC over its
// tangible reachability graph (petri/ctmc_solver.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace wsn::markov {

/// A finite CTMC under construction / analysis.
class Ctmc {
 public:
  /// `n` states, all rates zero.
  explicit Ctmc(std::size_t n) : n_(n) {}

  std::size_t StateCount() const noexcept { return n_; }

  /// Add transition rate `rate` from state i to state j (i != j, rate >= 0).
  /// Repeated calls accumulate.
  void AddRate(std::size_t i, std::size_t j, double rate);

  /// Dense generator matrix Q (rows sum to zero).
  linalg::Matrix Generator() const;

  /// Sparse generator.
  linalg::CsrMatrix SparseGenerator() const;

  /// Sparse transposed generator Q^T.  Row i holds the inflow rates into
  /// state i, so p' = Q^T p is a cache-friendly row-major gather — the
  /// form the uniformization solver iterates millions of times.
  linalg::CsrMatrix SparseGeneratorTransposed() const;

  /// Exit rate of every state, in one O(edges) pass.
  std::vector<double> ExitRates() const;

  /// Stationary distribution.  Uses dense LU for chains up to
  /// `dense_threshold` states, Gauss–Seidel beyond.  Throws ModelError if
  /// the chain has no transitions or the solve fails.
  std::vector<double> StationaryDistribution(
      std::size_t dense_threshold = 512) const;

  /// Transient distribution at time t from initial distribution p0, via
  /// uniformization with truncation error below `epsilon`.  One-shot:
  /// callers evaluating many time points should hold a TransientSolver
  /// (transient_solver.hpp), which precomputes the generator once and
  /// advances incrementally.
  std::vector<double> TransientDistribution(const std::vector<double>& p0,
                                            double t,
                                            double epsilon = 1e-10) const;

 private:
  struct Edge {
    std::size_t from;
    std::size_t to;
    double rate;
  };

  std::size_t n_;
  std::vector<Edge> edges_;
};

}  // namespace wsn::markov
