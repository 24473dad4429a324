#include "des/bursty_workload.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace wsn::des {

using util::Require;

MmppWorkload::MmppWorkload(std::vector<double> rates,
                           std::vector<std::vector<double>> generator,
                           std::size_t initial_phase)
    : rates_(std::move(rates)), q_(std::move(generator)),
      phase_(initial_phase) {
  const std::size_t n = rates_.size();
  Require(n >= 1, "MMPP needs at least one phase");
  Require(q_.size() == n, "MMPP generator must be square");
  Require(initial_phase < n, "MMPP initial phase out of range");
  for (std::size_t i = 0; i < n; ++i) {
    Require(q_[i].size() == n, "MMPP generator must be square");
    Require(rates_[i] >= 0.0, "MMPP rates must be >= 0");
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) Require(q_[i][j] >= 0.0, "MMPP off-diagonals must be >= 0");
      row += q_[i][j];
    }
    Require(std::abs(row) < 1e-9, "MMPP generator rows must sum to zero");
  }
}

std::optional<double> MmppWorkload::NextArrival(double now, util::Rng& rng) {
  // Competing exponentials: in phase i, the next event is either an
  // arrival (rate rates_[i]) or a phase switch (rate -q_[i][i]).  Iterate
  // switches until an arrival happens.
  double t = now;
  for (;;) {
    const double arrival_rate = rates_[phase_];
    const double switch_rate = -q_[phase_][phase_];
    const double total = arrival_rate + switch_rate;
    if (total <= 0.0) return std::nullopt;  // absorbing silent phase
    t += util::SampleExponential(rng, total);
    if (util::UniformDouble(rng) * total < arrival_rate) {
      return t;
    }
    // Phase switch: pick the destination proportionally to q_[i][j].
    double u = util::UniformDouble(rng) * switch_rate;
    for (std::size_t j = 0; j < rates_.size(); ++j) {
      if (j == phase_) continue;
      u -= q_[phase_][j];
      if (u <= 0.0) {
        phase_ = j;
        break;
      }
    }
  }
}

std::string MmppWorkload::Describe() const {
  std::ostringstream os;
  os << "mmpp[" << rates_.size() << " phases]";
  return os.str();
}

BatchRenewalWorkload::BatchRenewalWorkload(util::Distribution interarrival,
                                           std::uint32_t batch_size,
                                           double geometric_mean)
    : interarrival_(std::move(interarrival)), fixed_batch_(batch_size),
      geometric_mean_(geometric_mean) {
  if (geometric_mean_ == 0.0) {
    Require(fixed_batch_ >= 1, "batch size must be >= 1");
  } else {
    Require(geometric_mean_ >= 1.0, "geometric batch mean must be >= 1");
  }
}

std::optional<double> BatchRenewalWorkload::NextArrival(double now,
                                                        util::Rng& rng) {
  if (remaining_in_batch_ > 0) {
    --remaining_in_batch_;
    return batch_time_;  // co-arrival at the renewal instant
  }
  batch_time_ = now + interarrival_.Sample(rng);
  std::uint32_t size = fixed_batch_;
  if (geometric_mean_ > 0.0) {
    // Geometric on {1, 2, ...} with mean geometric_mean_: success prob
    // p = 1/mean; size = 1 + floor(log(U)/log(1-p)).
    const double p = 1.0 / geometric_mean_;
    size = 1;
    if (p < 1.0) {
      const double u = util::UniformDoubleOpenLow(rng);
      size = 1 + static_cast<std::uint32_t>(
                     std::floor(std::log(u) / std::log(1.0 - p)));
    }
  }
  remaining_in_batch_ = size - 1;
  return batch_time_;
}

std::string BatchRenewalWorkload::Describe() const {
  std::ostringstream os;
  if (geometric_mean_ > 0.0) {
    os << "batch[geo mean=" << geometric_mean_ << ", "
       << interarrival_.Describe() << "]";
  } else {
    os << "batch[" << fixed_batch_ << ", " << interarrival_.Describe() << "]";
  }
  return os.str();
}

}  // namespace wsn::des
