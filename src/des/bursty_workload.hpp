// Bursty open-workload generators beyond the paper's plain Poisson
// process.  WSN traffic is famously bursty (event-triggered sensing), and
// power-management conclusions can flip under burstiness: these
// generators let the examples and tests explore that axis while reusing
// the same CPU models.
//
//   * MmppWorkload — Markov-modulated Poisson process: a small CTMC of
//     "phases", each with its own Poisson arrival rate (e.g. quiet vs
//     event-storm phases).
//   * BatchRenewalWorkload — renewal arrivals where each renewal brings a
//     (fixed or geometrically distributed) batch of jobs at once.
#pragma once

#include <cstdint>
#include <vector>

#include "des/workload.hpp"

namespace wsn::des {

class MmppWorkload final : public Workload {
 public:
  /// `rates[i]` is the Poisson arrival rate while in phase i;
  /// `generator` is the phase-switching CTMC generator (square, rows sum
  /// to zero, off-diagonals >= 0).  Starts in phase `initial_phase`.
  MmppWorkload(std::vector<double> rates,
               std::vector<std::vector<double>> generator,
               std::size_t initial_phase = 0);

  std::optional<double> NextArrival(double now, util::Rng& rng) override;
  std::string Describe() const override;

 private:
  std::vector<double> rates_;
  std::vector<std::vector<double>> q_;
  std::size_t phase_;
  double phase_clock_ = 0.0;  ///< time already spent in current phase
};

class BatchRenewalWorkload final : public Workload {
 public:
  /// Renewal interarrival distribution between batches; each batch holds
  /// `batch_size` jobs when `geometric_mean` is 0, otherwise a geometric
  /// number of jobs with that mean (>= 1).
  BatchRenewalWorkload(util::Distribution interarrival,
                       std::uint32_t batch_size,
                       double geometric_mean = 0.0);

  std::optional<double> NextArrival(double now, util::Rng& rng) override;
  std::string Describe() const override;

 private:
  util::Distribution interarrival_;
  std::uint32_t fixed_batch_;
  double geometric_mean_;
  std::uint32_t remaining_in_batch_ = 0;
  double batch_time_ = 0.0;
};

}  // namespace wsn::des
