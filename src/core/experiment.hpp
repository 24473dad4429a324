// Experiment framework: parameter sweeps and the Δ-metrics behind the
// paper's Tables 4 and 5.
//
// The paper sweeps the Power Down Threshold over [0, 1] s for three Power
// Up Delays {0.001, 0.3, 10} s, then reports, per PUD, the *average
// absolute difference* between each pair of models — over the sweep
// points, across the four state shares (Table 4, in percentage points)
// and over the predicted energies (Table 5, joules).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/params.hpp"
#include "energy/power_state.hpp"
#include "util/executor.hpp"

namespace wsn::core {

/// One (model, parameter-point) evaluation within a sweep.
struct SweepPoint {
  CpuParams params;
  ModelEvaluation eval;
  double energy_joules = 0.0;
};

/// All evaluations of one model across the sweep.
struct SweepSeries {
  std::string model_name;
  std::vector<SweepPoint> points;
};

/// Evenly spaced values in [lo, hi] inclusive.
std::vector<double> LinearSpace(double lo, double hi, std::size_t count);

/// The paper's default PDT grid: `count` evenly spaced points over
/// 0..1 s (the zero endpoint is nudged to `eps` so every model,
/// including the closed form with e^{lambda*T}, stays in its documented
/// domain).  Requires count >= 2 and eps in (0, 1); throws
/// InvalidArgument otherwise.
std::vector<double> PaperPdtGrid(std::size_t count = 11, double eps = 1e-9);

/// Run `model` over a PDT sweep at fixed base params, computing energy
/// over `energy_horizon` seconds via Eq. 25.  Sweep points fan out
/// across `executor` (point i's result lands at index i, so the series
/// is bit-identical whatever the thread count); `model.Evaluate` must be
/// re-entrant, which every model in this library is.
SweepSeries SweepPowerDownThreshold(const CpuEnergyModel& model,
                                    CpuParams base,
                                    const std::vector<double>& pdt_values,
                                    const energy::PowerStateTable& table,
                                    double energy_horizon,
                                    util::ParallelExecutor& executor);

/// Mean absolute state-share difference between two series, in percentage
/// points, averaged over sweep points and the four states (Table 4 cell).
double MeanAbsoluteShareDeltaPct(const SweepSeries& a, const SweepSeries& b);

/// Mean absolute energy difference in joules (Table 5 cell).
double MeanAbsoluteEnergyDelta(const SweepSeries& a, const SweepSeries& b);

/// A rendered Table 4/5 row: PUD plus the three pairwise deltas
/// (sim-markov, sim-pn, markov-pn).
struct DeltaRow {
  double power_up_delay = 0.0;
  double sim_markov = 0.0;
  double sim_pn = 0.0;
  double markov_pn = 0.0;
};

/// Compute the full Table 4 (`share_deltas`) and Table 5
/// (`energy_deltas`) for the given PUD list.  The three series per PUD
/// are produced by the supplied models (paper order: sim, markov, pn).
/// Every (PUD, model, PDT) point fans out through one `executor.Map`, so
/// the tables are bit-identical whatever the thread count.
struct DeltaTables {
  std::vector<DeltaRow> share_deltas;   // Table 4 (percentage points)
  std::vector<DeltaRow> energy_deltas;  // Table 5 (joules)
};

DeltaTables ComputeDeltaTables(
    const CpuEnergyModel& sim, const CpuEnergyModel& markov,
    const CpuEnergyModel& pn, CpuParams base,
    const std::vector<double>& pud_values,
    const std::vector<double>& pdt_values,
    const energy::PowerStateTable& table, double energy_horizon,
    util::ParallelExecutor& executor);

}  // namespace wsn::core
