// The paper's Markov model of the CPU (Section 4.1): an M/M/1 birth–death
// chain extended with a standby state and two *deterministic* transitions —
// power-down after a constant idle threshold T and a constant power-up
// delay D — approximated in stationary analysis via Cox's method of
// supplementary variables.  Implements paper Eqs. (11)–(24) in closed form.
//
// Notation (matching the paper):
//   lambda — Poisson arrival rate
//   mu     — exponential service rate (mean service time 1/mu)
//   T      — Power Down Threshold (deterministic idle time before standby)
//   D      — Power Up Delay (deterministic wake-up time)
//   rho    — lambda/mu, must be < 1
#pragma once

#include <cstddef>

namespace wsn::markov {

/// Stationary state probabilities and derived metrics of the
/// supplementary-variable CPU model.
struct SupplementaryResult {
  double p_standby = 0.0;   ///< ps, Eq. (17)
  double p_powerup = 0.0;   ///< pu, Eq. (18)
  double p_idle = 0.0;      ///< pi, Eq. (12)
  double p_active = 0.0;    ///< G0(1), Eq. (19) — utilization

  double mean_jobs = 0.0;       ///< L(1), Eq. (21)
  double mean_latency = 0.0;    ///< tau = L(1)/lambda, Eq. (22)

  /// p_standby + p_powerup + p_idle + p_active; 1 up to rounding by
  /// construction (Eq. 10).  Kept for auditability.
  double probability_sum = 0.0;
};

class SupplementaryVariableModel {
 public:
  /// Throws InvalidArgument unless lambda, mu > 0, T, D >= 0 and rho < 1.
  SupplementaryVariableModel(double lambda, double mu, double T, double D);

  double PowerDownThreshold() const noexcept { return T_; }
  double PowerUpDelay() const noexcept { return D_; }
  double Rho() const noexcept { return lambda_ / mu_; }

  /// Evaluate Eqs. (11)-(22).
  SupplementaryResult Evaluate() const;

  /// Paper Eq. (23): total running time to process N jobs.
  double TotalRunningTime(std::size_t total_jobs) const;

  /// Paper Eq. (24): total energy to process N jobs given state power
  /// draws (units: power in mW -> energy in mW*s = mJ; callers scale).
  double TotalEnergyForJobs(std::size_t total_jobs, double p_idle_power,
                            double p_standby_power, double p_powerup_power,
                            double p_active_power) const;

 private:
  double lambda_;
  double mu_;
  double T_;
  double D_;
};

}  // namespace wsn::markov
