// Transient CPU analysis: initial condition, probability conservation,
// convergence to the stationary limit and a short-horizon simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "des/cpu_model.hpp"
#include "markov/transient.hpp"
#include "util/error.hpp"

namespace wsn::markov {
namespace {

TransientCpuAnalysis Default(std::size_t stages = 8) {
  return TransientCpuAnalysis(1.0, 10.0, 0.2, 0.1, stages);
}

TEST(Transient, StartsInStandby) {
  const auto a = Default();
  const TransientPoint p = a.At(0.0);
  EXPECT_DOUBLE_EQ(p.p_standby, 1.0);
  EXPECT_DOUBLE_EQ(p.p_active, 0.0);
  EXPECT_DOUBLE_EQ(p.mean_jobs, 0.0);
}

TEST(Transient, SharesAlwaysSumToOne) {
  const auto a = Default();
  for (double t : {0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 25.0}) {
    const TransientPoint p = a.At(t);
    EXPECT_NEAR(p.p_standby + p.p_powerup + p.p_idle + p.p_active, 1.0,
                1e-8)
        << "t=" << t;
    EXPECT_GE(p.p_standby, -1e-12);
    EXPECT_GE(p.p_active, -1e-12);
  }
}

TEST(Transient, ConvergesToStationaryLimit) {
  const auto a = Default();
  const StagesResult limit = a.StationaryLimit();
  const TransientPoint p = a.At(500.0);
  EXPECT_NEAR(p.p_standby, limit.p_standby, 1e-6);
  EXPECT_NEAR(p.p_idle, limit.p_idle, 1e-6);
  EXPECT_NEAR(p.p_active, limit.p_active, 1e-6);
  EXPECT_NEAR(p.mean_jobs, limit.mean_jobs, 1e-5);
}

TEST(Transient, ActivityRampsUpFromColdStart) {
  const auto a = Default();
  // Starting asleep, the active share grows from zero toward rho.
  const double early = a.At(0.05).p_active;
  const double mid = a.At(0.5).p_active;
  const double late = a.At(50.0).p_active;
  EXPECT_LT(early, mid);
  // A small overshoot past the stationary value is physical (the first
  // power-up releases a burst of queued work), so only bound it.
  EXPECT_LT(mid, late + 0.005);
  EXPECT_NEAR(late, 0.1, 0.02);
}

TEST(Transient, TrajectoryMatchesPointQueries) {
  const auto a = Default();
  const auto traj = a.Trajectory({0.1, 1.0, 10.0});
  ASSERT_EQ(traj.size(), 3u);
  EXPECT_NEAR(traj[1].p_idle, a.At(1.0).p_idle, 1e-12);
  EXPECT_DOUBLE_EQ(traj[2].time, 10.0);
}

TEST(Transient, MatchesShortHorizonSimulation) {
  // DES replications measured over [0, 2] s from the same cold start.
  const double horizon = 2.0;
  des::CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.2;
  cfg.power_up_delay = 0.1;
  cfg.sim_time = horizon;
  const des::CpuEnsembleResult agg = des::RunCpuEnsemble(cfg, 21, 4000, 0);

  // Average share over [0, horizon] from the transient trajectory.
  const TransientCpuAnalysis a(1.0, 10.0, 0.2, 0.1, 16);
  double mean_standby = 0.0, mean_active = 0.0;
  const std::size_t grid = 80;
  for (std::size_t i = 0; i < grid; ++i) {
    const double t = horizon * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(grid);
    const TransientPoint p = a.At(t);
    mean_standby += p.p_standby;
    mean_active += p.p_active;
  }
  mean_standby /= static_cast<double>(grid);
  mean_active /= static_cast<double>(grid);

  EXPECT_NEAR(agg.standby.Mean(), mean_standby, 0.01);
  EXPECT_NEAR(agg.active.Mean(), mean_active, 0.01);
}

TEST(Transient, DomainChecks) {
  const auto a = Default();
  EXPECT_THROW(a.At(-1.0), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::markov
