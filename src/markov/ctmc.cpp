#include "markov/ctmc.hpp"

#include <cmath>

#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "markov/transient_solver.hpp"
#include "util/error.hpp"

namespace wsn::markov {

using util::ModelError;
using util::Require;

void Ctmc::AddRate(std::size_t i, std::size_t j, double rate) {
  Require(i < n_ && j < n_,
          "CTMC transition endpoint out of range");
  Require(i != j, "CTMC self-loops are meaningless (rates, not probabilities)");
  Require(rate >= 0.0 && std::isfinite(rate), "CTMC rate must be >= 0");
  if (rate == 0.0) return;
  edges_.push_back({i, j, rate});
}

linalg::Matrix Ctmc::Generator() const {
  const std::size_t n = n_;
  linalg::Matrix q(n, n, 0.0);
  for (const Edge& e : edges_) {
    q(e.from, e.to) += e.rate;
    q(e.from, e.from) -= e.rate;
  }
  return q;
}

linalg::CsrMatrix Ctmc::SparseGenerator() const {
  const std::size_t n = n_;
  linalg::CooBuilder coo(n, n);
  for (const Edge& e : edges_) {
    coo.Add(e.from, e.to, e.rate);
    coo.Add(e.from, e.from, -e.rate);
  }
  return linalg::CsrMatrix(coo);
}

linalg::CsrMatrix Ctmc::SparseGeneratorTransposed() const {
  const std::size_t n = n_;
  linalg::CooBuilder coo(n, n);
  for (const Edge& e : edges_) {
    coo.Add(e.to, e.from, e.rate);
    coo.Add(e.from, e.from, -e.rate);
  }
  return linalg::CsrMatrix(coo);
}

std::vector<double> Ctmc::ExitRates() const {
  std::vector<double> exit(n_, 0.0);
  for (const Edge& e : edges_) exit[e.from] += e.rate;
  return exit;
}

std::vector<double> Ctmc::StationaryDistribution(
    std::size_t dense_threshold) const {
  const std::size_t n = n_;
  if (n == 0) throw ModelError("CTMC has no states");
  if (n == 1) return {1.0};
  if (edges_.empty()) throw ModelError("CTMC has no transitions");
  if (n <= dense_threshold) {
    return linalg::StationaryFromGenerator(Generator());
  }
  linalg::IterativeOptions opts;
  opts.tolerance = 1e-13;
  auto result = linalg::StationaryGaussSeidel(SparseGenerator(), opts);
  if (!result.converged) {
    throw ModelError("CTMC stationary solve did not converge");
  }
  return std::move(result.solution);
}

std::vector<double> Ctmc::TransientDistribution(const std::vector<double>& p0,
                                                double t,
                                                double epsilon) const {
  const std::size_t n = n_;
  Require(p0.size() == n, "initial distribution dimension mismatch");
  Require(t >= 0.0, "time must be >= 0");
  if (t == 0.0 || edges_.empty()) return p0;
  // Single-shot front door over the incremental solver: one checkpoint
  // step from 0 to t.  Callers with many time points should hold a
  // TransientSolver themselves and advance it (see transient_solver.hpp).
  TransientSolver solver(*this, p0, epsilon);
  return solver.AdvanceTo(t);
}

}  // namespace wsn::markov
