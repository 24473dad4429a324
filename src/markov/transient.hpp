// Transient (time-dependent) analysis of the CPU power model — an
// extension beyond the paper, which reports steady state only.  Useful
// for duty-cycled nodes that never reach stationarity within a sensing
// epoch, and for quantifying the warm-up bias that the steady-state
// estimators (paper Sec. 6's "long simulation time" remark) must discard.
//
// Built on the method-of-stages chain (stages.hpp) and uniformized
// transient solution (ctmc.hpp): deterministic delays are Erlang-k
// approximated, so accuracy improves with `stages` exactly as in the
// stationary case.
#pragma once

#include <cstddef>
#include <vector>

#include "markov/stages.hpp"

namespace wsn::markov {

/// State shares at a point in time.
struct TransientPoint {
  double time = 0.0;
  double p_standby = 0.0;
  double p_powerup = 0.0;
  double p_idle = 0.0;
  double p_active = 0.0;
  double mean_jobs = 0.0;
};

class TransientCpuAnalysis {
 public:
  /// Same parameterization as StagesCpuModel; the chain starts in the
  /// standby state with an empty system (the paper's initial condition).
  TransientCpuAnalysis(double lambda, double mu, double T, double D,
                       std::size_t stages, std::size_t max_jobs = 0);

  /// Shares at time `t` (>= 0).
  TransientPoint At(double t) const;

  /// Shares along a time grid, answered by ONE incremental uniformization
  /// pass (markov::TransientSolver) instead of a full series per point.
  /// Every entry must be >= 0 (throws InvalidArgument otherwise); the
  /// grid need not be sorted — unsorted input is evaluated in ascending
  /// order internally and results are returned in the input's order.
  std::vector<TransientPoint> Trajectory(
      const std::vector<double>& times) const;

  /// Stationary shares (the t -> infinity limit) for convergence checks.
  StagesResult StationaryLimit() const;

 private:
  std::vector<double> InitialDistribution() const;
  TransientPoint SharesFrom(const std::vector<double>& dist, double t) const;

  StagesCpuModel model_;
  double T_;
  double D_;
  std::size_t kt_;
  std::size_t kd_;
  Ctmc chain_;
};

}  // namespace wsn::markov
