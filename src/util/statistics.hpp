// Streaming statistics for simulation output analysis.
//
// Simulation estimators in this project fall into two families:
//   * observation-based (job latencies, counts per replication) — use
//     RunningStats (Welford's numerically stable online algorithm);
//   * time-persistent (number of tokens in a place, CPU power state) — use
//     TimeWeightedStats which integrates a piecewise-constant signal.
//
// IntervalFromStats turns independent replication means into a Student-t
// confidence interval.
#pragma once

#include <algorithm>
#include <cstddef>

namespace wsn::util {

/// Welford online mean/variance over scalar observations.
class RunningStats {
 public:
  void Add(double x) noexcept {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t Count() const noexcept { return n_; }
  double Mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two observations).
  double Variance() const noexcept;
  double StdDev() const noexcept;
  /// Standard error of the mean.
  double StdError() const noexcept;
  double Min() const noexcept { return min_; }
  double Max() const noexcept { return max_; }
  double Sum() const noexcept { return mean_ * static_cast<double>(n_); }

  void Reset() noexcept { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time average of a piecewise-constant signal, e.g. tokens in a place.
///
/// Usage: call Update(t, value) whenever the signal changes to `value` at
/// time `t`; call Finish(t_end) once.  Mean() is then the time-weighted
/// average over [t_start, t_end).
class TimeWeightedStats {
 public:
  explicit TimeWeightedStats(double start_time = 0.0) noexcept
      : last_time_(start_time) {}

  /// Record that the signal takes `value` from time `now` onward.
  void Update(double now, double value) noexcept {
    Accumulate(now);
    value_ = value;
    last_time_ = now;
    has_value_ = true;
  }

  /// Close the observation window at `now` (signal keeps its last value).
  void Finish(double now) noexcept;

  /// Time-weighted mean over the observed window.
  double Mean() const noexcept;

  double ElapsedTime() const noexcept { return total_time_; }
  double CurrentValue() const noexcept { return value_; }

 private:
  void Accumulate(double now) noexcept {
    if (!has_value_) return;
    const double dt = now - last_time_;
    if (dt > 0.0) {
      weighted_sum_ += value_ * dt;
      total_time_ += dt;
    }
  }

  double value_ = 0.0;
  double last_time_ = 0.0;
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
  bool has_value_ = false;
};

/// Two-sided Student-t critical value for confidence `level` (e.g. 0.95)
/// with `dof` degrees of freedom.  Exact for the tabulated small dofs we
/// use; falls back to the normal quantile for large dof.
double StudentTCritical(double level, std::size_t dof);

/// A mean +- half-width interval.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  double level = 0.95;

  double Low() const noexcept { return mean - half_width; }
  double High() const noexcept { return mean + half_width; }
  bool Contains(double x) const noexcept { return Low() <= x && x <= High(); }
};

/// Interval from independent replication means.
ConfidenceInterval IntervalFromStats(const RunningStats& s, double level = 0.95);

}  // namespace wsn::util
