// Method-of-stages CTMC baseline for the CPU power model.
//
// The paper's two deterministic delays (power-down threshold T, power-up
// delay D) make the system non-Markovian.  The classic alternative to the
// supplementary-variable approximation is to *replace each deterministic
// delay with an Erlang-k distribution of the same mean* (k exponential
// phases of rate k/T resp. k/D).  As k grows, Erlang-k converges to the
// point mass, and the resulting (fully Markovian) CTMC converges to the
// true process — at the cost of a k-fold state-space blow-up.
//
// k = 1 is the naive "pretend the constant delay is exponential" model;
// the stage-count ablation (`wsnctl run ablation-stages`) sweeps k to show the
// convergence the paper's discussion implies.
#pragma once

#include <cstddef>

#include "markov/ctmc.hpp"

namespace wsn::markov {

struct StagesResult {
  double p_standby = 0.0;
  double p_powerup = 0.0;
  double p_idle = 0.0;
  double p_active = 0.0;
  double mean_jobs = 0.0;     ///< E[number of jobs in system]
  std::size_t states = 0;     ///< size of the expanded CTMC
};

class StagesCpuModel {
 public:
  /// `k_powerdown` / `k_powerup` are the Erlang stage counts for T and D.
  /// `max_jobs` truncates the queue (0 = choose automatically from the
  /// load so that the truncation mass is negligible).
  StagesCpuModel(double lambda, double mu, double T, double D,
                 std::size_t k_powerdown, std::size_t k_powerup,
                 std::size_t max_jobs = 0);

  /// Build the CTMC and solve for the stationary distribution.
  StagesResult Evaluate() const;

  /// The expanded chain (exposed for inspection/tests).
  Ctmc BuildChain() const;

  /// Aggregate an arbitrary distribution over the chain's states into
  /// the four shares (used by transient analysis).
  StagesResult SharesFromDistribution(
      const std::vector<double>& distribution) const;

  /// Index of the standby state (the chain's initial condition).
  std::size_t StandbyState() const noexcept { return 0; }

  std::size_t MaxJobs() const noexcept { return max_jobs_; }

 private:
  double lambda_;
  double mu_;
  double T_;
  double D_;
  std::size_t kt_;
  std::size_t kd_;
  std::size_t max_jobs_;
};

}  // namespace wsn::markov
