#include "markov/transient_solver.hpp"

#include <algorithm>
#include <cmath>

#include "markov/ctmc.hpp"
#include "util/error.hpp"

namespace wsn::markov {

using util::Require;

TransientSolver::TransientSolver(const Ctmc& chain, std::vector<double> p0,
                                 double epsilon)
    : epsilon_(epsilon), dist_(std::move(p0)) {
  const std::size_t n = chain.StateCount();
  Require(n > 0, "transient solver needs a chain with states");
  Require(dist_.size() == n, "initial distribution dimension mismatch");
  Require(epsilon_ > 0.0 && epsilon_ < 1.0,
          "uniformization epsilon must be in (0, 1)");

  double max_exit = 0.0;
  for (double x : chain.ExitRates()) max_exit = std::max(max_exit, x);
  if (max_exit > 0.0) {
    // Same constant Ctmc::TransientDistribution has always used: a 2%
    // margin over the spectral bound keeps the uniformized chain
    // aperiodic and the series stable.
    lambda_ = max_exit * 1.02 + 1e-12;
    qt_ = chain.SparseGeneratorTransposed();
    v_.resize(n);
    qt_v_.resize(n);
    acc_.resize(n);
  }
}

const std::vector<double>& TransientSolver::AdvanceTo(double t) {
  Require(t >= 0.0, "time must be >= 0");
  Require(t >= time_,
          "TransientSolver cannot step backwards");
  const double dt = t - time_;
  if (dt > 0.0 && lambda_ > 0.0) StepBy(dt);
  time_ = t;
  return dist_;
}

void TransientSolver::StepBy(double dt) {
  const std::size_t n = dist_.size();
  const double lt = lambda_ * dt;

  // Poisson-weighted series sum_k w_k(lt) * (P^T)^k dist with
  // P = I + Q/Lambda; the weight recurrence runs in log space so very
  // large lt cannot underflow the first terms into zeros prematurely.
  v_ = dist_;
  std::fill(acc_.begin(), acc_.end(), 0.0);
  double log_w = -lt;
  double cumulative = 0.0;
  std::size_t k = 0;
  const std::size_t k_max =
      static_cast<std::size_t>(lt + 10.0 * std::sqrt(lt) + 50.0);
  while (cumulative < 1.0 - epsilon_ && k <= k_max) {
    const double w = std::exp(log_w);
    if (w > 0.0) {
      for (std::size_t i = 0; i < n; ++i) acc_[i] += w * v_[i];
      cumulative += w;
    }
    // v <- P^T v = v + (Q^T v) / Lambda, via the pre-built transposed
    // CSR (row-major gather, no per-term allocation).
    qt_.ApplyInto(v_, qt_v_);
    for (std::size_t i = 0; i < n; ++i) v_[i] += qt_v_[i] / lambda_;
    ++k;
    log_w += std::log(lt) - std::log(static_cast<double>(k));
  }

  // Fold the truncated tail mass back in by renormalizing, exactly as
  // the single-shot path does.
  double sum = 0.0;
  for (double x : acc_) sum += x;
  if (sum > 0.0) {
    const double inv = 1.0 / sum;
    for (std::size_t i = 0; i < n; ++i) dist_[i] = acc_[i] * inv;
  } else {
    dist_ = acc_;
  }
}

}  // namespace wsn::markov
