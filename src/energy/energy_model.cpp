#include "energy/energy_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsn::energy {

using util::Require;

void StateShares::Validate(double tol) const {
  for (double s : {standby, powerup, idle, active}) {
    Require(s >= -1e-12 && s <= 1.0 + 1e-9 && std::isfinite(s),
            "state share outside [0,1]");
  }
  Require(std::abs(standby + powerup + idle + active - 1.0) <= tol,
          "state shares must sum to 1");
}

double AveragePowerMilliwatts(const StateShares& shares,
                              const PowerStateTable& table) {
  table.Validate();
  return shares.standby * table.standby_mw + shares.powerup * table.powerup_mw +
         shares.idle * table.idle_mw + shares.active * table.active_mw;
}

double TotalEnergyJoules(const StateShares& shares,
                         const PowerStateTable& table, double seconds) {
  Require(seconds >= 0.0, "duration must be >= 0");
  return AveragePowerMilliwatts(shares, table) * seconds / 1000.0;
}

double EnergyFromTimesJoules(double t_standby, double t_powerup,
                             double t_idle, double t_active,
                             const PowerStateTable& table) {
  table.Validate();
  Require(t_standby >= 0.0 && t_powerup >= 0.0 && t_idle >= 0.0 &&
              t_active >= 0.0,
          "state times must be >= 0");
  const double mj = t_standby * table.standby_mw +
                    t_powerup * table.powerup_mw + t_idle * table.idle_mw +
                    t_active * table.active_mw;
  return mj / 1000.0;
}

}  // namespace wsn::energy
