#include "util/distributions.hpp"

#include <sstream>

namespace wsn::util {
namespace {

void CheckPositive(double x, const char* what) {
  Require(x > 0.0 && std::isfinite(x), std::string(what) + " must be positive");
}

void CheckNonNegative(double x, const char* what) {
  Require(x >= 0.0 && std::isfinite(x),
          std::string(what) + " must be non-negative");
}

}  // namespace

Distribution::Distribution(Exponential d) : v_(d) {
  CheckPositive(d.rate, "Exponential rate");
}

Distribution::Distribution(Deterministic d) : v_(d) {
  CheckNonNegative(d.value, "Deterministic value");
}

Distribution::Distribution(Uniform d) : v_(d) {
  Require(std::isfinite(d.low) && std::isfinite(d.high) && d.low <= d.high &&
              d.low >= 0.0,
          "Uniform bounds must satisfy 0 <= low <= high");
}

Distribution::Distribution(Erlang d) : v_(d) {
  Require(d.k >= 1, "Erlang k must be >= 1");
  CheckPositive(d.rate, "Erlang rate");
}

double Distribution::SampleOther(Rng& rng) const {
  if (const auto* u = std::get_if<Uniform>(&v_)) {
    return u->low + (u->high - u->low) * UniformDouble(rng);
  }
  const Erlang& d = std::get<Erlang>(v_);
  double sum = 0.0;
  for (int i = 0; i < d.k; ++i) sum += SampleExponential(rng, d.rate);
  return sum;
}

double Distribution::Mean() const {
  return std::visit(
      [](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return 1.0 / d.rate;
        } else if constexpr (std::is_same_v<T, Deterministic>) {
          return d.value;
        } else if constexpr (std::is_same_v<T, Uniform>) {
          return 0.5 * (d.low + d.high);
        } else {
          static_assert(std::is_same_v<T, Erlang>);
          return static_cast<double>(d.k) / d.rate;
        }
      },
      v_);
}

double Distribution::Variance() const {
  return std::visit(
      [](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return 1.0 / (d.rate * d.rate);
        } else if constexpr (std::is_same_v<T, Deterministic>) {
          return 0.0;
        } else if constexpr (std::is_same_v<T, Uniform>) {
          const double w = d.high - d.low;
          return w * w / 12.0;
        } else {
          static_assert(std::is_same_v<T, Erlang>);
          return static_cast<double>(d.k) / (d.rate * d.rate);
        }
      },
      v_);
}

std::string Distribution::Describe() const {
  std::ostringstream os;
  std::visit(
      [&os](const auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          os << "Exp(rate=" << d.rate << ")";
        } else if constexpr (std::is_same_v<T, Deterministic>) {
          os << "Det(" << d.value << ")";
        } else if constexpr (std::is_same_v<T, Uniform>) {
          os << "Uniform[" << d.low << "," << d.high << "]";
        } else {
          static_assert(std::is_same_v<T, Erlang>);
          os << "Erlang(k=" << d.k << ",rate=" << d.rate << ")";
        }
      },
      v_);
  return os.str();
}

}  // namespace wsn::util
