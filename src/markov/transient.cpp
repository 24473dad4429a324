#include "markov/transient.hpp"

#include <algorithm>
#include <numeric>

#include "markov/transient_solver.hpp"
#include "util/error.hpp"

namespace wsn::markov {

using util::Require;

TransientCpuAnalysis::TransientCpuAnalysis(double lambda, double mu, double T,
                                           double D, std::size_t stages,
                                           std::size_t max_jobs)
    : model_(lambda, mu, T, D, stages, stages, max_jobs), T_(T), D_(D),
      kt_(stages), kd_(stages), chain_(model_.BuildChain()) {}

std::vector<double> TransientCpuAnalysis::InitialDistribution() const {
  std::vector<double> p0(chain_.StateCount(), 0.0);
  p0[model_.StandbyState()] = 1.0;
  return p0;
}

TransientPoint TransientCpuAnalysis::SharesFrom(
    const std::vector<double>& dist, double t) const {
  const StagesResult r = model_.SharesFromDistribution(dist);
  TransientPoint out;
  out.time = t;
  out.p_standby = r.p_standby;
  out.p_powerup = r.p_powerup;
  out.p_idle = r.p_idle;
  out.p_active = r.p_active;
  out.mean_jobs = r.mean_jobs;
  return out;
}

TransientPoint TransientCpuAnalysis::At(double t) const {
  Require(t >= 0.0, "time must be >= 0");
  TransientSolver solver(chain_, InitialDistribution());
  return SharesFrom(solver.AdvanceTo(t), t);
}

std::vector<TransientPoint> TransientCpuAnalysis::Trajectory(
    const std::vector<double>& times) const {
  for (double t : times) {
    Require(t >= 0.0, "trajectory times must be >= 0");
  }
  std::vector<TransientPoint> out(times.size());
  if (times.empty()) return out;

  // The incremental solver consumes times in ascending order; evaluate a
  // sorted view and scatter results back to the input's positions.
  std::vector<std::size_t> order(times.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!std::is_sorted(times.begin(), times.end())) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return times[a] < times[b];
    });
  }

  TransientSolver solver(chain_, InitialDistribution());
  for (std::size_t idx : order) {
    out[idx] = SharesFrom(solver.AdvanceTo(times[idx]), times[idx]);
  }
  return out;
}

StagesResult TransientCpuAnalysis::StationaryLimit() const {
  return model_.Evaluate();
}

}  // namespace wsn::markov
