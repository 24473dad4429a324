// Energy computation (paper Eq. 25): occupancy-weighted power draw times
// elapsed time.  Power is in mW, time in seconds, energy reported in
// joules (mW * s = mJ; divided by 1000).
#pragma once

#include "energy/power_state.hpp"

namespace wsn::energy {

/// Fraction of time spent in each CPU state; must sum to ~1.
struct StateShares {
  double standby = 0.0;
  double powerup = 0.0;
  double idle = 0.0;
  double active = 0.0;

  /// Throws InvalidArgument if any share is outside [0, 1+eps] or the sum
  /// deviates from 1 by more than `tol`.
  void Validate(double tol = 1e-6) const;
};

/// Paper Eq. 25: average power (mW) at the given occupancy.
double AveragePowerMilliwatts(const StateShares& shares,
                              const PowerStateTable& table);

/// Paper Eq. 25: total energy in joules over `seconds`.
double TotalEnergyJoules(const StateShares& shares,
                         const PowerStateTable& table, double seconds);

/// Energy in joules from explicit per-state times (seconds).
double EnergyFromTimesJoules(double t_standby, double t_powerup,
                             double t_idle, double t_active,
                             const PowerStateTable& table);

}  // namespace wsn::energy
