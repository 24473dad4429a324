#include "core/experiment.hpp"

#include <cmath>
#include <iterator>

#include "util/error.hpp"

namespace wsn::core {

using util::Require;

std::vector<double> LinearSpace(double lo, double hi, std::size_t count) {
  Require(count >= 2, "need at least two sweep points");
  Require(hi > lo, "sweep range must be non-empty");
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i) /
                      static_cast<double>(count - 1);
  }
  return out;
}

std::vector<double> PaperPdtGrid(std::size_t count, double eps) {
  Require(count >= 2,
          "PaperPdtGrid needs at least two points to span [eps, 1]");
  Require(eps > 0.0 && eps < 1.0, "eps must lie strictly inside (0, 1)");
  std::vector<double> grid = LinearSpace(0.0, 1.0, count);
  if (grid[0] == 0.0) grid[0] = eps;
  return grid;
}

namespace {

/// `model` at `base` with the PDT set to `pdt`, and its energy.
SweepPoint EvaluatePoint(const CpuEnergyModel& model, CpuParams base,
                         double pdt, const energy::PowerStateTable& table,
                         double energy_horizon) {
  SweepPoint point;
  point.params = base;
  point.params.power_down_threshold = pdt;
  point.eval = model.Evaluate(point.params);
  point.energy_joules = EnergyJoules(point.eval, table, energy_horizon);
  return point;
}

}  // namespace

SweepSeries SweepPowerDownThreshold(const CpuEnergyModel& model,
                                    CpuParams base,
                                    const std::vector<double>& pdt_values,
                                    const energy::PowerStateTable& table,
                                    double energy_horizon,
                                    util::ParallelExecutor& executor) {
  SweepSeries series;
  series.model_name = model.Name();
  series.points = executor.Map(pdt_values.size(), [&](std::size_t i) {
    return EvaluatePoint(model, base, pdt_values[i], table, energy_horizon);
  });
  return series;
}

double MeanAbsoluteShareDeltaPct(const SweepSeries& a, const SweepSeries& b) {
  Require(a.points.size() == b.points.size() && !a.points.empty(),
          "series must align");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& sa = a.points[i].eval.shares;
    const auto& sb = b.points[i].eval.shares;
    acc += std::abs(sa.standby - sb.standby) +
           std::abs(sa.powerup - sb.powerup) +
           std::abs(sa.idle - sb.idle) + std::abs(sa.active - sb.active);
  }
  // Average over points and the four states; scale to percentage points.
  return acc / (4.0 * static_cast<double>(a.points.size())) * 100.0;
}

double MeanAbsoluteEnergyDelta(const SweepSeries& a, const SweepSeries& b) {
  Require(a.points.size() == b.points.size() && !a.points.empty(),
          "series must align");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    acc += std::abs(a.points[i].energy_joules - b.points[i].energy_joules);
  }
  return acc / static_cast<double>(a.points.size());
}

DeltaTables ComputeDeltaTables(
    const CpuEnergyModel& sim, const CpuEnergyModel& markov,
    const CpuEnergyModel& pn, CpuParams base,
    const std::vector<double>& pud_values,
    const std::vector<double>& pdt_values,
    const energy::PowerStateTable& table, double energy_horizon,
    util::ParallelExecutor& executor) {
  // One fan-out over every (PUD, model, PDT) point, in that index order,
  // so no worker waits at the end of a series.
  const CpuEnergyModel* models[] = {&sim, &markov, &pn};
  const std::size_t per_model = pdt_values.size();
  const std::size_t per_pud = std::size(models) * per_model;
  const std::vector<SweepPoint> points =
      executor.Map(pud_values.size() * per_pud, [&](std::size_t i) {
        CpuParams params = base;
        params.power_up_delay = pud_values[i / per_pud];
        const std::size_t j = i % per_pud;
        return EvaluatePoint(*models[j / per_model], params,
                             pdt_values[j % per_model], table,
                             energy_horizon);
      });
  const auto series = [&](std::size_t u, std::size_t k) {
    SweepSeries out;
    out.model_name = models[k]->Name();
    const auto first = points.begin() + (u * per_pud + k * per_model);
    out.points.assign(first, first + per_model);
    return out;
  };

  DeltaTables tables;
  for (std::size_t u = 0; u < pud_values.size(); ++u) {
    const double pud = pud_values[u];
    const SweepSeries s_sim = series(u, 0);
    const SweepSeries s_markov = series(u, 1);
    const SweepSeries s_pn = series(u, 2);

    DeltaRow shares;
    shares.power_up_delay = pud;
    shares.sim_markov = MeanAbsoluteShareDeltaPct(s_sim, s_markov);
    shares.sim_pn = MeanAbsoluteShareDeltaPct(s_sim, s_pn);
    shares.markov_pn = MeanAbsoluteShareDeltaPct(s_markov, s_pn);
    tables.share_deltas.push_back(shares);

    DeltaRow energy;
    energy.power_up_delay = pud;
    energy.sim_markov = MeanAbsoluteEnergyDelta(s_sim, s_markov);
    energy.sim_pn = MeanAbsoluteEnergyDelta(s_sim, s_pn);
    energy.markov_pn = MeanAbsoluteEnergyDelta(s_markov, s_pn);
    tables.energy_deltas.push_back(energy);
  }
  return tables;
}

}  // namespace wsn::core
