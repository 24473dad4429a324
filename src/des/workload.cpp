#include "des/workload.hpp"

#include "util/error.hpp"

namespace wsn::des {

using util::Require;

OpenWorkload::OpenWorkload(util::Distribution interarrival)
    : interarrival_(std::move(interarrival)) {}

std::optional<double> OpenWorkload::NextArrival(double now, util::Rng& rng) {
  return now + interarrival_.Sample(rng);
}

std::string OpenWorkload::Describe() const {
  return "open[" + interarrival_.Describe() + "]";
}

std::unique_ptr<Workload> MakePoissonWorkload(double rate) {
  Require(rate > 0.0, "Poisson rate must be positive");
  return std::make_unique<OpenWorkload>(
      util::Distribution(util::Exponential{rate}));
}

}  // namespace wsn::des
