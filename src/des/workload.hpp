// Workload generators (paper Section 4.1): open arrivals, independent of
// the system state, as in interrupt-driven sensing.  The bursty open
// workloads are in bursty_workload.hpp.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace wsn::des {

/// Generates arrival times.  NextArrival(now, rng) returns the absolute
/// time of the next job arrival given the current time, or nullopt when
/// the workload is exhausted.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Absolute time of the next arrival at/after `now`.
  virtual std::optional<double> NextArrival(double now, util::Rng& rng) = 0;

  virtual std::string Describe() const = 0;
};

/// Open workload: renewal process with iid inter-arrival times.
/// Exponential inter-arrivals give the paper's Poisson process.
class OpenWorkload final : public Workload {
 public:
  explicit OpenWorkload(util::Distribution interarrival);

  std::optional<double> NextArrival(double now, util::Rng& rng) override;
  std::string Describe() const override;

 private:
  util::Distribution interarrival_;
};

/// Factory for the paper's default open Poisson workload.
std::unique_ptr<Workload> MakePoissonWorkload(double rate);

}  // namespace wsn::des
