// Histogram binning, edge policies and NaN handling.
#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/histogram.hpp"

namespace wsn::util {
namespace {

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(0.9);
  h.Add(5.5);
  h.Add(9.99);
  EXPECT_EQ(h.BinCount(0), 2u);
  EXPECT_EQ(h.BinCount(5), 1u);
  EXPECT_EQ(h.BinCount(9), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-0.1);
  h.Add(1.0);  // right edge is exclusive
  h.Add(2.0);
  EXPECT_EQ(h.Underflow(), 1u);
  EXPECT_EQ(h.Overflow(), 2u);
  EXPECT_EQ(h.TotalCount(), 3u);
}

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(Histogram, ClampPolicyFoldsOutOfRangeIntoEdgeBins) {
  Histogram h(0.0, 1.0, 4, HistogramEdgePolicy::kClamp);
  h.Add(-5.0);   // below low -> first bin
  h.Add(1.0);    // right edge (exclusive) -> last bin
  h.Add(100.0);  // above high -> last bin
  h.Add(0.3);    // interior, untouched by the policy
  EXPECT_EQ(h.BinCount(0), 1u);
  EXPECT_EQ(h.BinCount(1), 1u);
  EXPECT_EQ(h.BinCount(3), 2u);
  EXPECT_EQ(h.Underflow(), 0u);
  EXPECT_EQ(h.Overflow(), 0u);
  EXPECT_EQ(h.TotalCount(), 4u);
  // Sum still reflects the raw samples, not the clamped positions.
  EXPECT_DOUBLE_EQ(h.Sum(), -5.0 + 1.0 + 100.0 + 0.3);
}

TEST(Histogram, NanSamplesAreCountedButNeverBinned) {
  for (HistogramEdgePolicy policy :
       {HistogramEdgePolicy::kOverflowBins, HistogramEdgePolicy::kClamp}) {
    Histogram h(0.0, 1.0, 4, policy);
    h.Add(std::nan(""));
    h.Add(0.5);
    EXPECT_EQ(h.Nan(), 1u);
    EXPECT_EQ(h.TotalCount(), 2u);
    EXPECT_EQ(h.Underflow(), 0u);
    EXPECT_EQ(h.Overflow(), 0u);
    std::size_t binned = 0;
    for (std::size_t b = 0; b < h.Bins(); ++b) binned += h.BinCount(b);
    EXPECT_EQ(binned, 1u);
    EXPECT_DOUBLE_EQ(h.Sum(), 0.5);  // NaN is excluded from the sum
  }
}

}  // namespace
}  // namespace wsn::util
