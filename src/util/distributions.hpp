// Delay distributions used by timed transitions (Petri nets), service and
// inter-arrival processes (DES), and phase-type approximations (Markov).
//
// A Distribution is a small value type (copyable, cheap) describing a
// non-negative random delay.  Sampling is explicit through Sample(rng) so
// the simulators control their own generators and streams.
#pragma once

#include <cmath>
#include <string>
#include <variant>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::util {

/// Sample Exponential(rate) by inversion.
inline double SampleExponential(Rng& rng, double rate) {
  return -std::log(UniformDoubleOpenLow(rng)) / rate;
}

/// Exponential with rate `rate` (mean 1/rate).
struct Exponential {
  double rate;
};

/// Point mass at `value` (>= 0).  Used for the paper's Power Down Threshold
/// and Power Up Delay transitions.
struct Deterministic {
  double value;
};

/// Uniform on [low, high].
struct Uniform {
  double low;
  double high;
};

/// Erlang-k: sum of k iid Exponential(rate) phases; mean k/rate.
/// This is the method-of-stages building block for approximating
/// deterministic delays inside Markov chains.
struct Erlang {
  int k;
  double rate;
};

/// Tagged union of supported delay distributions.
class Distribution {
 public:
  using Variant = std::variant<Exponential, Deterministic, Uniform, Erlang>;

  Distribution(Exponential d);        // NOLINT(google-explicit-constructor)
  Distribution(Deterministic d);      // NOLINT(google-explicit-constructor)
  Distribution(Uniform d);            // NOLINT(google-explicit-constructor)
  Distribution(Erlang d);             // NOLINT(google-explicit-constructor)

  /// Draw one variate.  The simulators draw Exponential and Deterministic
  /// delays per event, so those two are sampled here, inline.
  double Sample(Rng& rng) const {
    if (const auto* e = std::get_if<Exponential>(&v_)) {
      return SampleExponential(rng, e->rate);
    }
    if (const auto* d = std::get_if<Deterministic>(&v_)) return d->value;
    return SampleOther(rng);
  }

  /// Analytical mean.
  double Mean() const;

  /// Analytical variance.
  double Variance() const;

  /// True iff the distribution is memoryless (Exponential).
  bool IsMemoryless() const noexcept {
    return std::holds_alternative<Exponential>(v_);
  }

  /// True iff the distribution is a point mass (Deterministic).
  bool IsDeterministic() const noexcept {
    return std::holds_alternative<Deterministic>(v_);
  }

  /// Human-readable description, e.g. "Exp(rate=2)".
  std::string Describe() const;

  const Variant& AsVariant() const noexcept { return v_; }

 private:
  /// Sample() for the laws it does not handle inline.
  double SampleOther(Rng& rng) const;

  Variant v_;
};

}  // namespace wsn::util
