// Open renewal workloads: rate recovery, deterministic inter-arrivals and
// validation.
#include <gtest/gtest.h>

#include "des/workload.hpp"
#include "util/error.hpp"

namespace wsn::des {
namespace {

TEST(OpenWorkload, PoissonRateRecovered) {
  auto w = MakePoissonWorkload(2.0);
  util::Rng rng(1);
  double now = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto t = w->NextArrival(now, rng);
    ASSERT_TRUE(t.has_value());
    ASSERT_GT(*t, now);
    now = *t;
  }
  // n arrivals in `now` seconds: empirical rate ~ 2.
  EXPECT_NEAR(static_cast<double>(n) / now, 2.0, 0.05);
}

TEST(OpenWorkload, DeterministicInterarrivals) {
  OpenWorkload w{util::Distribution(util::Deterministic{0.5})};
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(*w.NextArrival(0.0, rng), 0.5);
  EXPECT_DOUBLE_EQ(*w.NextArrival(0.5, rng), 1.0);
}

TEST(OpenWorkload, DescribeMentionsDistribution) {
  OpenWorkload w{util::Distribution(util::Exponential{1.0})};
  EXPECT_NE(w.Describe().find("open"), std::string::npos);
  EXPECT_NE(w.Describe().find("Exp"), std::string::npos);
}

TEST(MakePoissonWorkload, RejectsNonPositiveRate) {
  EXPECT_THROW(MakePoissonWorkload(0.0), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::des
