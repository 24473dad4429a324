// End-to-end integration: a scaled-down version of the paper's full
// pipeline (PDT sweep at three PUDs, three models, energy via Eq. 25)
// asserting the qualitative conclusions of Figs. 4-5 and Tables 4-5.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/models.hpp"
#include "energy/power_state.hpp"

namespace wsn::core {
namespace {

TEST(Integration, PaperPipelineQualitativeConclusions) {
  EvalConfig cfg;
  cfg.sim_time = 1500.0;
  cfg.replications = 12;
  cfg.seed = 2008;  // the paper's year, for luck

  const SimulationCpuModel sim(cfg);
  const MarkovCpuModel markov;
  const PetriNetCpuModel pn(cfg);

  CpuParams base;  // paper Table 2 defaults
  const auto grid = PaperPdtGrid(5);
  util::ParallelExecutor serial(1);
  const DeltaTables tables =
      ComputeDeltaTables(sim, markov, pn, base, {0.001, 0.3, 10.0}, grid,
                         energy::Pxa271(), 1000.0, serial);

  ASSERT_EQ(tables.share_deltas.size(), 3u);

  // Table 4 shape: at PUD = 10 s, Markov error explodes while the Petri
  // net stays near the simulation.
  const DeltaRow& small = tables.share_deltas[0];
  const DeltaRow& large = tables.share_deltas[2];
  EXPECT_LT(small.sim_markov, 1.5);  // pct points
  EXPECT_LT(small.sim_pn, 1.5);
  EXPECT_GT(large.sim_markov, 5.0 * large.sim_pn);
  EXPECT_GT(large.sim_markov, 10.0);  // paper: ~29 pp mean per state

  // Table 5 shape: same story in joules.
  const DeltaRow& esmall = tables.energy_deltas[0];
  const DeltaRow& elarge = tables.energy_deltas[2];
  EXPECT_LT(esmall.sim_markov, 1.0);
  EXPECT_LT(esmall.sim_pn, 1.0);
  EXPECT_GT(elarge.sim_markov, 3.0 * elarge.sim_pn);
}

TEST(Integration, Figure4SeriesShapes) {
  EvalConfig cfg;
  cfg.sim_time = 2000.0;
  cfg.replications = 12;
  const PetriNetCpuModel pn(cfg);
  CpuParams base;
  base.power_up_delay = 0.001;
  const auto grid = PaperPdtGrid(5);
  util::ParallelExecutor serial(1);
  const SweepSeries s = SweepPowerDownThreshold(pn, base, grid,
                                                energy::Pxa271(), 1000.0,
                                                serial);

  // Idle rises, standby falls, active ~constant (= rho), powerup small.
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    EXPECT_GT(s.points[i].eval.shares.idle + 0.02,
              s.points[i - 1].eval.shares.idle);
    EXPECT_LT(s.points[i].eval.shares.standby,
              s.points[i - 1].eval.shares.standby + 0.02);
  }
  for (const SweepPoint& p : s.points) {
    EXPECT_NEAR(p.eval.shares.active, 0.1, 0.03);
    EXPECT_LT(p.eval.shares.powerup, 0.01);
  }
}

TEST(Integration, Figure5EnergyMonotoneForAllModels) {
  EvalConfig cfg;
  cfg.sim_time = 2000.0;
  cfg.replications = 10;
  const auto grid = PaperPdtGrid(4);
  CpuParams base;
  util::ParallelExecutor serial(1);
  for (const auto& model : MakePaperModels(cfg)) {
    const SweepSeries s = SweepPowerDownThreshold(
        *model, base, grid, energy::Pxa271(), 1000.0, serial);
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_GT(s.points[i].energy_joules,
                s.points[i - 1].energy_joules - 0.3)
          << model->Name();
    }
    // Sanity band: between all-standby (17 J) and all-active (193 J).
    EXPECT_GT(s.points.front().energy_joules, 17.0);
    EXPECT_LT(s.points.back().energy_joules, 193.0);
  }
}

}  // namespace
}  // namespace wsn::core
