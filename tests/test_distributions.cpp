// Distribution sampling: every supported distribution's sample mean and
// variance must converge to the analytical values (parameterized property
// sweep), the exponential sampler's shape, plus domain validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/distributions.hpp"
#include "util/error.hpp"
#include "util/statistics.hpp"

namespace wsn::util {
namespace {

struct DistCase {
  const char* label;
  Distribution dist;
};

class DistributionMoments : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionMoments, SampleMomentsMatchAnalytical) {
  const Distribution& d = GetParam().dist;
  Rng rng(0xabcdef);
  RunningStats stats;
  const int n = 400000;
  for (int i = 0; i < n; ++i) stats.Add(d.Sample(rng));

  const double mean = d.Mean();
  const double sd = std::sqrt(d.Variance());
  // Standard error of the mean; 5 sigma tolerance keeps flakiness ~0.
  const double mean_tol =
      5.0 * sd / std::sqrt(static_cast<double>(n)) + 1e-12;
  EXPECT_NEAR(stats.Mean(), mean, mean_tol) << GetParam().label;
  if (d.Variance() > 0.0) {
    EXPECT_NEAR(stats.Variance(), d.Variance(), 0.05 * d.Variance() + 1e-12)
        << GetParam().label;
  } else {
    EXPECT_NEAR(stats.Variance(), 0.0, 1e-12) << GetParam().label;
  }
}

TEST_P(DistributionMoments, SamplesNonNegative) {
  const Distribution& d = GetParam().dist;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(d.Sample(rng), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DistributionMoments,
    ::testing::Values(
        DistCase{"exp1", Distribution(Exponential{1.0})},
        DistCase{"exp10", Distribution(Exponential{10.0})},
        DistCase{"det0", Distribution(Deterministic{0.0})},
        DistCase{"det2_5", Distribution(Deterministic{2.5})},
        DistCase{"unif", Distribution(Uniform{0.5, 1.5})},
        DistCase{"erlang3", Distribution(Erlang{3, 2.0})},
        DistCase{"erlang20", Distribution(Erlang{20, 20.0})}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(Distribution, MemorylessOnlyForExponential) {
  EXPECT_TRUE(Distribution(Exponential{1.0}).IsMemoryless());
  EXPECT_FALSE(Distribution(Deterministic{1.0}).IsMemoryless());
  EXPECT_FALSE(Distribution(Erlang{2, 1.0}).IsMemoryless());
}

TEST(Distribution, DeterministicFlag) {
  EXPECT_TRUE(Distribution(Deterministic{1.0}).IsDeterministic());
  EXPECT_FALSE(Distribution(Exponential{1.0}).IsDeterministic());
}

TEST(Distribution, RejectsBadParameters) {
  EXPECT_THROW(Distribution(Exponential{0.0}), InvalidArgument);
  EXPECT_THROW(Distribution(Exponential{-1.0}), InvalidArgument);
  EXPECT_THROW(Distribution(Deterministic{-0.1}), InvalidArgument);
  EXPECT_THROW(Distribution(Uniform{2.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Distribution(Erlang{0, 1.0}), InvalidArgument);
}

TEST(Distribution, DescribeMentionsKind) {
  EXPECT_NE(Distribution(Exponential{2.0}).Describe().find("Exp"),
            std::string::npos);
  EXPECT_NE(Distribution(Deterministic{2.0}).Describe().find("Det"),
            std::string::npos);
}

TEST(Distribution, ErlangEqualsSumOfExponentialsInDistribution) {
  // Compare Erlang(5, 2) sample CDF at a few quantile points against the
  // empirical CDF of summed exponentials.
  Rng rng(99);
  const Distribution erlang(Erlang{5, 2.0});
  int below = 0;
  const int n = 200000;
  const double x = 2.5;  // mean
  for (int i = 0; i < n; ++i) {
    if (erlang.Sample(rng) <= x) ++below;
  }
  // P(Erlang(5,2) <= 2.5) = gammainc; reference value ~0.559507.
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5595, 0.01);
}

TEST(SampleExponential, ChiSquareGoodnessOfFit) {
  // Exp(2) draws binned over [0, 3) with the tail folded into the last
  // bin; chi-square with 11 dof has mean 11, so 60 is far out.
  const double rate = 2.0;
  const std::size_t bins = 12;
  const double width = 3.0 / static_cast<double>(bins);
  const int n = 200000;
  std::vector<int> counts(bins, 0);
  Rng rng(4);
  for (int i = 0; i < n; ++i) {
    const double x = SampleExponential(rng, rate);
    ++counts[std::min(bins - 1, static_cast<std::size_t>(x / width))];
  }
  double chi_square = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double lo = width * static_cast<double>(b);
    double p = std::exp(-rate * lo) - std::exp(-rate * (lo + width));
    if (b + 1 == bins) p += std::exp(-rate * 3.0);
    const double d = counts[b] - p * n;
    chi_square += d * d / (p * n);
  }
  EXPECT_LT(chi_square, 60.0);
}

}  // namespace
}  // namespace wsn::util
