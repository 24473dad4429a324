#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wsn::util {

Histogram::Histogram(double low, double high, std::size_t bins,
                     HistogramEdgePolicy policy)
    : low_(low), high_(high), width_((high - low) / static_cast<double>(bins)),
      policy_(policy), counts_(bins, 0) {
  Require(bins >= 1, "histogram needs at least one bin");
  Require(high > low, "histogram range must be non-empty");
}

void Histogram::Add(double x) noexcept {
  ++total_;
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  sum_ += x;
  if (x < low_) {
    if (policy_ == HistogramEdgePolicy::kClamp) {
      ++counts_.front();
    } else {
      ++underflow_;
    }
    return;
  }
  if (x >= high_) {
    if (policy_ == HistogramEdgePolicy::kClamp) {
      ++counts_.back();
    } else {
      ++overflow_;
    }
    return;
  }
  auto idx = static_cast<std::size_t>((x - low_) / width_);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

std::size_t Histogram::BinCount(std::size_t i) const {
  Require(i < counts_.size(), "histogram bin out of range");
  return counts_[i];
}

}  // namespace wsn::util
