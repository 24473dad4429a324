// Incremental uniformization solver for CTMC transient analysis.
//
// Ctmc::TransientDistribution answers one (p0, t) query by running the
// Poisson-weighted uniformization series from scratch — including
// rebuilding the sparse generator.  Trajectory-style consumers (state
// shares on a 200-point time grid, cumulative-energy integrals) used to
// pay that full series per point, making an m-point grid O(m^2) series
// terms in total.
//
// TransientSolver hoists everything t-independent out of the query:
// construction builds the transposed CSR generator, the exit rates and
// the uniformization constant Lambda once; AdvanceTo(t) then steps the
// distribution from the last checkpoint to t, so a sorted sequence of
// queries costs one series over the *gaps* — O(Lambda * t_max) matrix-
// vector products overall instead of O(sum_i Lambda * t_i).  All series
// workspaces are preallocated members: a step performs no allocation.
//
// Checkpointed stepping is mathematically exact for a Markov process
// (p(t) = e^{Q(t-t0)} p(t0)); numerically each step truncates its series
// at mass epsilon and renormalizes, so incremental results agree with a
// fresh single-shot run to ~epsilon per checkpoint (pinned at 1e-12 in
// tests/test_transient_solver.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace wsn::markov {

class Ctmc;

class TransientSolver {
 public:
  /// Precomputes the uniformized operator of `chain` (not retained) and
  /// sets the checkpoint to (t = 0, p0).  `p0` must have one entry per
  /// state; `epsilon` bounds the truncated Poisson tail mass per step.
  TransientSolver(const Ctmc& chain, std::vector<double> p0,
                  double epsilon = 1e-10);

  /// Time of the current checkpoint.
  double CurrentTime() const noexcept { return time_; }

  /// Advance the checkpoint to absolute time `t` (>= CurrentTime(),
  /// throws InvalidArgument otherwise) and return the distribution at t.
  /// Calling with t == CurrentTime() is a no-op returning the
  /// checkpoint's distribution.
  const std::vector<double>& AdvanceTo(double t);

  /// The uniformization constant Lambda (0 for a chain with no
  /// transitions, whose distribution is constant in time).
  double UniformizationRate() const noexcept { return lambda_; }

 private:
  void StepBy(double dt);

  double epsilon_;
  double lambda_ = 0.0;
  linalg::CsrMatrix qt_;  ///< transposed generator, built once

  double time_ = 0.0;
  std::vector<double> dist_;
  // Series workspaces (member-owned so AdvanceTo never allocates).
  std::vector<double> v_;
  std::vector<double> qt_v_;
  std::vector<double> acc_;
};

}  // namespace wsn::markov
