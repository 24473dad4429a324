// Statistics: Welford accumulator vs naive formulas, time-weighted
// integrals, Student-t criticals and the CI coverage property.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/distributions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace wsn::util {
namespace {

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  RunningStats s;
  for (double x : xs) s.Add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);

  EXPECT_EQ(s.Count(), xs.size());
  EXPECT_NEAR(s.Mean(), mean, 1e-12);
  EXPECT_NEAR(s.Variance(), var, 1e-12);
  EXPECT_EQ(s.Min(), -3.0);
  EXPECT_EQ(s.Max(), 7.25);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  s.Add(5.0);
  EXPECT_EQ(s.Mean(), 5.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.StdError(), 0.0);
}

TEST(RunningStats, NumericallyStableForLargeOffset) {
  RunningStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.Add(offset + (i % 2 ? 1.0 : -1.0));
  EXPECT_NEAR(s.Mean(), offset, 1e-3);
  EXPECT_NEAR(s.Variance(), 1.001001, 1e-3);  // n/(n-1) correction
}

TEST(TimeWeightedStats, PiecewiseConstantSignal) {
  TimeWeightedStats tw(0.0);
  tw.Update(0.0, 2.0);   // value 2 on [0, 4)
  tw.Update(4.0, 10.0);  // value 10 on [4, 5)
  tw.Finish(5.0);
  EXPECT_NEAR(tw.Mean(), (2.0 * 4.0 + 10.0 * 1.0) / 5.0, 1e-12);
  EXPECT_NEAR(tw.ElapsedTime(), 5.0, 1e-12);
}

TEST(TimeWeightedStats, ZeroDurationUpdatesIgnored) {
  TimeWeightedStats tw(0.0);
  tw.Update(0.0, 5.0);
  tw.Update(0.0, 7.0);  // instantaneous change
  tw.Finish(2.0);
  EXPECT_NEAR(tw.Mean(), 7.0, 1e-12);
}

TEST(StudentT, KnownCriticalValues) {
  EXPECT_NEAR(StudentTCritical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.95, 5), 2.571, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.95, 30), 2.042, 5e-3);
  EXPECT_NEAR(StudentTCritical(0.95, 1000), 1.962, 5e-3);
  EXPECT_NEAR(StudentTCritical(0.99, 10), 3.169, 1e-3);
}

TEST(StudentT, RejectsBadLevel) {
  EXPECT_THROW(StudentTCritical(0.0, 5), InvalidArgument);
  EXPECT_THROW(StudentTCritical(1.0, 5), InvalidArgument);
}

// Coverage property: a 95% CI on the mean of a known distribution should
// contain the true mean ~95% of the time.
TEST(ConfidenceInterval, CoverageNearNominal) {
  Rng rng(2024);
  int covered = 0;
  const int trials = 600;
  for (int trial = 0; trial < trials; ++trial) {
    RunningStats s;
    for (int i = 0; i < 30; ++i) {
      s.Add(SampleExponential(rng, 2.0));  // true mean 0.5
    }
    if (IntervalFromStats(s, 0.95).Contains(0.5)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  // Binomial(600, .95) 5-sigma band.
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

}  // namespace
}  // namespace wsn::util
