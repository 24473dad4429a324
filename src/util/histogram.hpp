// Fixed-bin histogram: the obs metrics layer's fixed-bucket latency/size
// histograms.
#pragma once

#include <cstddef>
#include <vector>

namespace wsn::util {

/// What Add does with a sample outside [low, high).
///
/// Out-of-range policy (pinned by tests/test_histogram.cpp):
///   * kOverflowBins — the historical behavior: the sample lands in a
///     dedicated underflow/overflow side bin and no interior bin moves;
///   * kClamp       — the sample is folded into the first/last interior
///     bin, so a fixed-range histogram never silently parks tail mass in
///     an unplotted side bin (the policy the obs metrics histograms use).
/// NaN samples are never binned under either policy: they increment the
/// dedicated Nan() counter (and TotalCount()) instead — previously a NaN
/// fell through both range checks into an undefined float->size_t cast.
enum class HistogramEdgePolicy {
  kOverflowBins,  ///< out-of-range samples go to Underflow()/Overflow()
  kClamp,         ///< out-of-range samples clamp into the edge bins
};

/// Equal-width histogram over [low, high) with overflow/underflow bins
/// (or edge clamping — see HistogramEdgePolicy).
class Histogram {
 public:
  Histogram(double low, double high, std::size_t bins,
            HistogramEdgePolicy policy = HistogramEdgePolicy::kOverflowBins);

  void Add(double x) noexcept;

  std::size_t TotalCount() const noexcept { return total_; }
  std::size_t BinCount(std::size_t i) const;
  std::size_t Underflow() const noexcept { return underflow_; }
  std::size_t Overflow() const noexcept { return overflow_; }
  /// NaN samples seen (counted in TotalCount, never binned).
  std::size_t Nan() const noexcept { return nan_; }
  std::size_t Bins() const noexcept { return counts_.size(); }
  double Low() const noexcept { return low_; }
  double High() const noexcept { return high_; }

  /// Sum of every finite sample added (including out-of-range ones) —
  /// lets consumers report a mean next to the bucketed shape.
  double Sum() const noexcept { return sum_; }

 private:
  double low_;
  double high_;
  double width_;
  HistogramEdgePolicy policy_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t nan_ = 0;
  std::size_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace wsn::util
