#include "util/statistics.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsn::util {

double RunningStats::Variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::StdDev() const noexcept { return std::sqrt(Variance()); }

double RunningStats::StdError() const noexcept {
  if (n_ < 2) return 0.0;
  return StdDev() / std::sqrt(static_cast<double>(n_));
}

void TimeWeightedStats::Finish(double now) noexcept {
  Accumulate(now);
  last_time_ = now;
}

double TimeWeightedStats::Mean() const noexcept {
  if (total_time_ <= 0.0) return has_value_ ? value_ : 0.0;
  return weighted_sum_ / total_time_;
}

namespace {

// Normal quantile via Acklam's rational approximation (|error| < 1.15e-9).
double NormalQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

// Student-t quantile from the normal quantile using the Cornish–Fisher
// style expansion (Abramowitz & Stegun 26.7.5); accurate to ~1e-4 for
// dof >= 3, which is more than enough for CI reporting.
double StudentTQuantile(double p, double dof) {
  const double x = NormalQuantile(p);
  const double x3 = x * x * x;
  const double x5 = x3 * x * x;
  const double x7 = x5 * x * x;
  const double g1 = (x3 + x) / 4.0;
  const double g2 = (5.0 * x5 + 16.0 * x3 + 3.0 * x) / 96.0;
  const double g3 = (3.0 * x7 + 19.0 * x5 + 17.0 * x3 - 15.0 * x) / 384.0;
  return x + g1 / dof + g2 / (dof * dof) + g3 / (dof * dof * dof);
}

}  // namespace

double StudentTCritical(double level, std::size_t dof) {
  Require(level > 0.0 && level < 1.0, "confidence level must be in (0,1)");
  if (dof == 0) return 0.0;
  const double p = 0.5 + level / 2.0;
  // Exact-enough table for the very small dofs where the expansion is weak.
  if (std::abs(level - 0.95) < 1e-12) {
    static const double t95[] = {0.0,   12.706, 4.303, 3.182, 2.776,
                                 2.571, 2.447,  2.365, 2.306, 2.262,
                                 2.228, 2.201,  2.179, 2.160, 2.145,
                                 2.131, 2.120,  2.110, 2.101, 2.093, 2.086};
    if (dof <= 20) return t95[dof];
  }
  if (std::abs(level - 0.99) < 1e-12) {
    static const double t99[] = {0.0,   63.657, 9.925, 5.841, 4.604,
                                 4.032, 3.707,  3.499, 3.355, 3.250,
                                 3.169, 3.106,  3.055, 3.012, 2.977,
                                 2.947, 2.921,  2.898, 2.878, 2.861, 2.845};
    if (dof <= 20) return t99[dof];
  }
  if (dof < 3) {
    // Fall back to a conservative wide value for exotic levels at tiny dof.
    return StudentTQuantile(p, 3.0) * 2.0;
  }
  return StudentTQuantile(p, static_cast<double>(dof));
}

ConfidenceInterval IntervalFromStats(const RunningStats& s, double level) {
  ConfidenceInterval ci;
  ci.mean = s.Mean();
  ci.level = level;
  if (s.Count() >= 2) {
    ci.half_width = StudentTCritical(level, s.Count() - 1) * s.StdError();
  }
  return ci;
}

}  // namespace wsn::util
