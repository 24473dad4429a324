// Experiment framework: grids, sweeps, delta metrics and the Table 4/5
// computation pipeline (on cheap analytical models to keep tests fast).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.hpp"
#include "core/models.hpp"
#include "energy/power_state.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"

namespace wsn::core {
namespace {

TEST(LinearSpace, EndpointsAndSpacing) {
  const auto g = LinearSpace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[1], 0.25);
  EXPECT_THROW(LinearSpace(0.0, 1.0, 1), util::InvalidArgument);
  EXPECT_THROW(LinearSpace(1.0, 0.0, 3), util::InvalidArgument);
}

TEST(PaperPdtGrid, NudgesZeroEndpoint) {
  const auto g = PaperPdtGrid(11);
  ASSERT_EQ(g.size(), 11u);
  EXPECT_GT(g.front(), 0.0);
  EXPECT_LT(g.front(), 1e-6);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
}

TEST(PaperPdtGrid, RejectsDegenerateRequests) {
  EXPECT_THROW(PaperPdtGrid(0), util::InvalidArgument);
  EXPECT_THROW(PaperPdtGrid(1), util::InvalidArgument);
  EXPECT_THROW(PaperPdtGrid(11, 0.0), util::InvalidArgument);
  EXPECT_THROW(PaperPdtGrid(11, 1.0), util::InvalidArgument);
  EXPECT_EQ(PaperPdtGrid(2).size(), 2u);
}

TEST(Sweep, MarkovSeriesHasExpectedShape) {
  const MarkovCpuModel markov;
  CpuParams base;
  const auto grid = PaperPdtGrid(6);
  util::ParallelExecutor serial(1);
  const SweepSeries s = SweepPowerDownThreshold(
      markov, base, grid, energy::Pxa271(), 1000.0, serial);

  ASSERT_EQ(s.points.size(), 6u);
  EXPECT_EQ(s.model_name, "markov");
  // Energy must increase with PDT (paper Fig. 5's rising curve).
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    EXPECT_GT(s.points[i].energy_joules, s.points[i - 1].energy_joules);
    EXPECT_GT(s.points[i].eval.shares.idle,
              s.points[i - 1].eval.shares.idle);
  }
  // Each point remembers its parameters.
  EXPECT_DOUBLE_EQ(s.points[2].params.power_down_threshold, grid[2]);
}

TEST(DeltaMetrics, ZeroForIdenticalSeries) {
  const MarkovCpuModel markov;
  CpuParams base;
  const auto grid = PaperPdtGrid(4);
  util::ParallelExecutor serial(1);
  const SweepSeries s = SweepPowerDownThreshold(
      markov, base, grid, energy::Pxa271(), 1000.0, serial);
  EXPECT_DOUBLE_EQ(MeanAbsoluteShareDeltaPct(s, s), 0.0);
  EXPECT_DOUBLE_EQ(MeanAbsoluteEnergyDelta(s, s), 0.0);
}

TEST(DeltaMetrics, DetectsKnownDifference) {
  // Compare Markov against the k=1 stages model: both analytical, so the
  // delta is deterministic and strictly positive.
  const MarkovCpuModel markov;
  const StagesMarkovCpuModel stages(1);
  CpuParams base;
  base.power_up_delay = 1.0;
  const auto grid = PaperPdtGrid(4);
  util::ParallelExecutor serial(1);
  const auto sm = SweepPowerDownThreshold(markov, base, grid,
                                          energy::Pxa271(), 1000.0, serial);
  const auto ss = SweepPowerDownThreshold(stages, base, grid,
                                          energy::Pxa271(), 1000.0, serial);
  EXPECT_GT(MeanAbsoluteShareDeltaPct(sm, ss), 0.0);
  EXPECT_GT(MeanAbsoluteEnergyDelta(sm, ss), 0.0);
}

TEST(DeltaMetrics, MisalignedSeriesRejected) {
  const MarkovCpuModel markov;
  CpuParams base;
  util::ParallelExecutor serial(1);
  const auto a = SweepPowerDownThreshold(markov, base, PaperPdtGrid(4),
                                         energy::Pxa271(), 1000.0, serial);
  const auto b = SweepPowerDownThreshold(markov, base, PaperPdtGrid(5),
                                         energy::Pxa271(), 1000.0, serial);
  EXPECT_THROW(MeanAbsoluteShareDeltaPct(a, b), util::InvalidArgument);
}

TEST(DeltaTables, FullPipelineOnAnalyticalModels) {
  // Use three cheap analytical models as stand-ins to validate the
  // pipeline mechanics (the real sim/markov/pn run lives in the bench).
  const MarkovCpuModel markov;
  const StagesMarkovCpuModel stages_fine(12);
  const StagesMarkovCpuModel stages_coarse(1);
  CpuParams base;
  util::ParallelExecutor serial(1);
  const DeltaTables tables = ComputeDeltaTables(
      stages_fine, markov, stages_coarse, base, {0.001, 1.0},
      PaperPdtGrid(4), energy::Pxa271(), 1000.0, serial);

  ASSERT_EQ(tables.share_deltas.size(), 2u);
  ASSERT_EQ(tables.energy_deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(tables.share_deltas[0].power_up_delay, 0.001);
  EXPECT_DOUBLE_EQ(tables.share_deltas[1].power_up_delay, 1.0);
  // The supplementary-variable vs stages discrepancy grows with PUD.
  EXPECT_GT(tables.share_deltas[1].sim_markov,
            tables.share_deltas[0].sim_markov);
  for (const auto& row : tables.share_deltas) {
    EXPECT_GE(row.sim_markov, 0.0);
    EXPECT_GE(row.sim_pn, 0.0);
    EXPECT_GE(row.markov_pn, 0.0);
  }
}

TEST(DeltaTables, OneFanOutMatchesPerSeriesSweeps) {
  // The paper's three models at tiny effort: the tables computed through
  // one fan-out equal, bit for bit, those computed from one sweep per
  // (PUD, model) series, serially and on four workers.
  EvalConfig config;
  config.sim_time = 50.0;
  config.replications = 2;
  config.seed = 7;
  config.threads = 1;
  const SimulationCpuModel sim(config);
  const MarkovCpuModel markov;
  const PetriNetCpuModel pn(config);
  const CpuParams base;
  const std::vector<double> puds = {0.001, 0.3, 10.0};
  const std::vector<double> grid = PaperPdtGrid(3);
  const energy::PowerStateTable table = energy::Pxa271();
  util::ParallelExecutor one(1);
  util::ParallelExecutor workers(4);
  const DeltaTables serial = ComputeDeltaTables(
      sim, markov, pn, base, puds, grid, table, 1000.0, one);
  const DeltaTables threaded = ComputeDeltaTables(
      sim, markov, pn, base, puds, grid, table, 1000.0, workers);

  for (std::size_t u = 0; u < puds.size(); ++u) {
    CpuParams params = base;
    params.power_up_delay = puds[u];
    const SweepSeries s =
        SweepPowerDownThreshold(sim, params, grid, table, 1000.0, one);
    const SweepSeries m =
        SweepPowerDownThreshold(markov, params, grid, table, 1000.0, one);
    const SweepSeries p =
        SweepPowerDownThreshold(pn, params, grid, table, 1000.0, one);
    for (const DeltaTables* got : {&serial, &threaded}) {
      const DeltaRow& shares = got->share_deltas[u];
      EXPECT_EQ(shares.power_up_delay, puds[u]);
      EXPECT_EQ(shares.sim_markov, MeanAbsoluteShareDeltaPct(s, m));
      EXPECT_EQ(shares.sim_pn, MeanAbsoluteShareDeltaPct(s, p));
      EXPECT_EQ(shares.markov_pn, MeanAbsoluteShareDeltaPct(m, p));
      const DeltaRow& energy = got->energy_deltas[u];
      EXPECT_EQ(energy.sim_markov, MeanAbsoluteEnergyDelta(s, m));
      EXPECT_EQ(energy.sim_pn, MeanAbsoluteEnergyDelta(s, p));
      EXPECT_EQ(energy.markov_pn, MeanAbsoluteEnergyDelta(m, p));
    }
  }
}

}  // namespace
}  // namespace wsn::core
