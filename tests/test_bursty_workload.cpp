// MMPP and batch-renewal workloads: rate recovery, burstiness properties
// and their effect on the CPU power model.
#include <gtest/gtest.h>

#include <cmath>

#include "des/bursty_workload.hpp"
#include "des/cpu_model.hpp"
#include "util/error.hpp"
#include "util/statistics.hpp"

namespace wsn::des {
namespace {

MmppWorkload TwoPhaseBursty() {
  // Quiet phase (rate 0.1) and storm phase (rate 5), mean dwell 10 s each.
  return MmppWorkload({0.1, 5.0}, {{-0.1, 0.1}, {0.1, -0.1}});
}

TEST(Mmpp, ValidatesGenerator) {
  EXPECT_THROW(MmppWorkload({1.0}, {{-1.0, 1.0}}), util::InvalidArgument);
  EXPECT_THROW(MmppWorkload({1.0, 1.0}, {{-1.0, 0.5}, {1.0, -1.0}}),
               util::InvalidArgument);
  EXPECT_THROW(MmppWorkload({-1.0, 1.0}, {{-1.0, 1.0}, {1.0, -1.0}}),
               util::InvalidArgument);
  EXPECT_THROW(MmppWorkload({1.0, 1.0}, {{-1.0, 1.0}, {1.0, -1.0}}, 5),
               util::InvalidArgument);
}

TEST(Mmpp, EmpiricalRateMatchesMeanRate) {
  // Symmetric switching: pi = (1/2, 1/2); mean rate 2.55.
  MmppWorkload w = TwoPhaseBursty();
  util::Rng rng(11);
  double now = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const auto t = w.NextArrival(now, rng);
    ASSERT_TRUE(t.has_value());
    ASSERT_GE(*t, now);
    now = *t;
  }
  EXPECT_NEAR(static_cast<double>(n) / now, 2.55, 0.08);
}

TEST(Mmpp, DegeneratesToPoissonWithEqualRates) {
  MmppWorkload w({2.0, 2.0}, {{-1.0, 1.0}, {1.0, -1.0}});
  util::Rng rng(3);
  util::RunningStats gaps;
  double now = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const auto t = w.NextArrival(now, rng);
    gaps.Add(*t - now);
    now = *t;
  }
  EXPECT_NEAR(gaps.Mean(), 0.5, 0.01);
  // Exponential gaps: SCV = 1.
  EXPECT_NEAR(gaps.Variance() / (gaps.Mean() * gaps.Mean()), 1.0, 0.05);
}

TEST(Mmpp, BurstyTrafficHasHighInterarrivalVariance) {
  MmppWorkload w = TwoPhaseBursty();
  util::Rng rng(5);
  util::RunningStats gaps;
  double now = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const auto t = w.NextArrival(now, rng);
    gaps.Add(*t - now);
    now = *t;
  }
  const double scv = gaps.Variance() / (gaps.Mean() * gaps.Mean());
  EXPECT_GT(scv, 2.0);  // far burstier than Poisson's 1
}

TEST(Batch, FixedBatchesArriveTogether) {
  BatchRenewalWorkload w(util::Distribution(util::Deterministic{1.0}), 3);
  util::Rng rng(1);
  // First batch at t = 1: three arrivals at the same instant.
  EXPECT_DOUBLE_EQ(*w.NextArrival(0.0, rng), 1.0);
  EXPECT_DOUBLE_EQ(*w.NextArrival(1.0, rng), 1.0);
  EXPECT_DOUBLE_EQ(*w.NextArrival(1.0, rng), 1.0);
  // Then the next renewal.
  EXPECT_DOUBLE_EQ(*w.NextArrival(1.0, rng), 2.0);
}

TEST(Batch, GeometricBatchMeanRecovered) {
  BatchRenewalWorkload w(util::Distribution(util::Exponential{1.0}), 0, 4.0);
  util::Rng rng(7);
  double now = 0.0;
  int arrivals = 0;
  int renewals = 0;
  double last_batch_time = -1.0;
  for (int i = 0; i < 200000; ++i) {
    const auto t = w.NextArrival(now, rng);
    ASSERT_TRUE(t.has_value());
    if (*t != last_batch_time) {
      ++renewals;
      last_batch_time = *t;
    }
    ++arrivals;
    now = *t;
  }
  EXPECT_NEAR(static_cast<double>(arrivals) / renewals, 4.0, 0.1);
}

TEST(Batch, ValidatesParameters) {
  EXPECT_THROW(
      BatchRenewalWorkload(util::Distribution(util::Exponential{1.0}), 0),
      util::InvalidArgument);
  EXPECT_THROW(BatchRenewalWorkload(
                   util::Distribution(util::Exponential{1.0}), 0, 0.5),
               util::InvalidArgument);
}

TEST(Batch, CpuModelRunsUnderBatchTraffic) {
  // Same mean rate as the paper's Poisson workload but arriving in bursts
  // of 4: the CPU stays in standby longer between batches and queues
  // deeper within them.
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;  // documentation only; workload overrides
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.1;
  cfg.power_up_delay = 0.001;
  cfg.sim_time = 20000.0;

  CpuSimulation bursty(
      cfg, 3,
      std::make_unique<BatchRenewalWorkload>(
          util::Distribution(util::Exponential{0.25}), 4));
  const CpuRunResult rb = bursty.Run();

  CpuSimulation smooth(cfg, 3, MakePoissonWorkload(1.0));
  const CpuRunResult rs = smooth.Run();

  // Comparable served load...
  EXPECT_NEAR(static_cast<double>(rb.jobs_completed),
              static_cast<double>(rs.jobs_completed),
              0.1 * static_cast<double>(rs.jobs_completed));
  // ...but burstier arrivals leave more uninterrupted standby time and
  // longer queues.
  EXPECT_GT(rb.FractionStandby(), rs.FractionStandby());
  EXPECT_GT(rb.jobs_in_system.Mean(), rs.jobs_in_system.Mean());
}

TEST(Mmpp, CpuSpendsMoreTimeStandbyUnderBurstyTraffic) {
  CpuModelConfig cfg;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.2;
  cfg.power_up_delay = 0.01;
  cfg.sim_time = 20000.0;

  CpuSimulation bursty(cfg, 9, std::make_unique<MmppWorkload>(
                                   TwoPhaseBursty()));
  CpuSimulation smooth(cfg, 9, MakePoissonWorkload(2.55));
  const CpuRunResult rb = bursty.Run();
  const CpuRunResult rs = smooth.Run();
  EXPECT_GT(rb.FractionStandby(), rs.FractionStandby());
}

}  // namespace
}  // namespace wsn::des
