// Registered ablation scenarios (DESIGN.md abl1/abl2).
#include <cmath>
#include <string>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "core/models.hpp"
#include "petri/simulation.hpp"
#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

namespace wsn::scenario {
namespace {

double MaxShareError(const core::ModelEvaluation& e,
                     const core::ModelEvaluation& truth) {
  return 100.0 *
         std::max({std::abs(e.shares.standby - truth.shares.standby),
                   std::abs(e.shares.powerup - truth.shares.powerup),
                   std::abs(e.shares.idle - truth.shares.idle),
                   std::abs(e.shares.active - truth.shares.active)});
}

core::CpuParams AblationParams(const ScenarioContext& ctx) {
  core::CpuParams params = PaperParams();
  params.power_down_threshold = ctx.Args().GetDouble("pdt", 0.3);
  params.power_up_delay = ctx.Args().GetDouble("pud", 0.3);
  return params;
}

// DESIGN.md abl1: how well does the method of stages handle the paper's
// deterministic delays?  Sweeps the Erlang stage count k for the stages
// CTMC and the Petri-net stage-expansion solver, against the
// supplementary-variable closed form and the DES ground truth.  k = 1 is
// the naive "constant delay ~ exponential" model.
ResultSet RunAblationStages(const ScenarioContext& ctx) {
  core::EvalConfig cfg = EvalConfigFromArgs(ctx.Args());
  if (!ctx.Args().Has("sim-time")) cfg.sim_time = 4000.0;
  const core::CpuParams params = AblationParams(ctx);

  ResultSet results(
      "Ablation: Erlang-k stage expansion of deterministic delays");
  results.SetMeta("pdt", util::FormatFixed(params.power_down_threshold, 3) +
                             " s");
  results.SetMeta("pud", util::FormatFixed(params.power_up_delay, 3) + " s");
  results.SetMeta("sim-time", util::FormatFixed(cfg.sim_time, 0) + " s");

  const core::SimulationCpuModel sim(cfg);
  const auto truth = sim.Evaluate(params);
  const core::MarkovCpuModel supplementary;
  const core::DspnExactCpuModel dspn_exact;

  results.AddNote("DES ground truth shares: standby=" +
                  util::FormatFixed(truth.shares.standby, 5) + " powerup=" +
                  util::FormatFixed(truth.shares.powerup, 5) + " idle=" +
                  util::FormatFixed(truth.shares.idle, 5) + " active=" +
                  util::FormatFixed(truth.shares.active, 5) +
                  " (95% CI half-width " +
                  util::FormatFixed(truth.share_ci_halfwidth, 5) + ")");
  results.AddNote(
      "Supplementary-variable closed form max |err|: " +
      util::FormatFixed(MaxShareError(supplementary.Evaluate(params), truth),
                        3) +
      " pct points");
  results.AddNote(
      "Exact DSPN solver (embedded chain)  max |err|: " +
      util::FormatFixed(MaxShareError(dspn_exact.Evaluate(params), truth), 3) +
      " pct points (should sit inside the simulation CI)");

  const std::vector<std::size_t> stage_counts = {1, 2, 5, 10, 20, 50};
  struct KRow {
    std::size_t k;
    double stages_err;
    double solver_err;
  };
  // The six (stages CTMC, PN solver) pairs are independent numerical
  // solves — fan them across the executor.
  const std::vector<KRow> rows =
      ctx.Executor().Map(stage_counts.size(), [&](std::size_t i) {
        const std::size_t k = stage_counts[i];
        const core::StagesMarkovCpuModel stages(k);
        const core::PetriSolverCpuModel pn_solver(k);
        return KRow{k, MaxShareError(stages.Evaluate(params), truth),
                    MaxShareError(pn_solver.Evaluate(params), truth)};
      });

  ResultTable& table = results.AddTable(
      "stage-expansion", {"k (stages)", "stages-CTMC max|err| (pp)",
                          "PN-solver max|err| (pp)"});
  for (const KRow& row : rows) {
    table.AddRow({std::to_string(row.k), util::FormatFixed(row.stages_err, 3),
                  util::FormatFixed(row.solver_err, 3)});
  }
  results.AddNote(
      "Expected: error decreases toward the simulation CI as k grows; "
      "k = 1 (naive exponential) is the worst.");
  return results;
}

// DESIGN.md abl2: Petri-net steady-state estimation quality vs simulation
// effort — CI width and bias against the high-accuracy solver reference
// as functions of horizon, warm-up fraction and replication count.
ResultSet RunAblationSteady(const ScenarioContext& ctx) {
  const core::CpuParams params = AblationParams(ctx);

  ResultSet results("Ablation: PN steady-state estimation vs effort");
  results.SetMeta("pdt", util::FormatFixed(params.power_down_threshold, 3) +
                             " s");
  results.SetMeta("pud", util::FormatFixed(params.power_up_delay, 3) + " s");

  // High-fidelity reference: stage-expansion solver with many stages.
  const core::PetriSolverCpuModel reference(60);
  const double ref_idle = reference.Evaluate(params).shares.idle;
  results.AddNote("Reference idle share (k=60 numerical solver): " +
                  util::FormatFixed(ref_idle, 5));

  core::CpuNetLayout layout;
  const petri::PetriNet net = core::BuildCpuPetriNet(params, &layout);

  struct EffortCase {
    double horizon;
    double warmup_frac;
    std::size_t reps;
  };
  const std::vector<EffortCase> cases = {
      {200.0, 0.0, 8},   {1000.0, 0.0, 8},   {1000.0, 0.1, 8},
      {1000.0, 0.0, 32}, {5000.0, 0.1, 8},   {5000.0, 0.1, 32},
      {20000.0, 0.1, 16},
  };
  struct CaseRow {
    double mean;
    double half_width;
  };
  // Each effort point is an independent token-game ensemble; parallelism
  // lives in the scenario's executor, so each ensemble runs on one thread.
  const std::vector<CaseRow> rows =
      ctx.Executor().Map(cases.size(), [&](std::size_t i) {
        const EffortCase& c = cases[i];
        petri::SimulationConfig cfg;
        cfg.horizon = c.horizon;
        cfg.warmup = c.horizon * c.warmup_frac;
        cfg.seed = 77;
        const petri::EnsembleResult agg =
            petri::SimulateSpnEnsemble(net, cfg, c.reps, /*threads=*/1);
        // idle = E[#CPU_ON] - E[#Active]; Active is nearly constant, so
        // approximate the idle spread by the CPU_ON spread.
        const double mean = agg.mean_tokens[layout.cpu_on].Mean() -
                            agg.mean_tokens[layout.active].Mean();
        const double hw =
            util::IntervalFromStats(agg.mean_tokens[layout.cpu_on]).half_width;
        return CaseRow{mean, hw};
      });

  ResultTable& table = results.AddTable(
      "effort", {"horizon(s)", "warmup", "reps", "idle-share mean",
                 "95% CI halfwidth", "|bias| (pp)"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.AddRow({util::FormatFixed(cases[i].horizon, 0),
                  util::FormatFixed(cases[i].warmup_frac, 2),
                  std::to_string(cases[i].reps),
                  util::FormatFixed(rows[i].mean, 5),
                  util::FormatFixed(rows[i].half_width, 5),
                  util::FormatFixed(std::abs(rows[i].mean - ref_idle) * 100.0,
                                    3)});
  }
  results.AddNote(
      "Expected: CI half-width shrinks ~1/sqrt(horizon x reps); bias falls "
      "within the CI once the horizon passes ~1000 s, matching the paper's "
      "note that PN estimates need long runs to stabilize.");
  return results;
}

std::vector<util::FlagSpec> OperatingPointFlags() {
  return {
      {"pdt", "T", "0.3", "Power Down Threshold (s)"},
      {"pud", "D", "0.3", "Power Up Delay (s)"},
  };
}

const ScenarioRegistrar reg_ablation_stages(MakeScenario(
    "ablation-stages",
    "Erlang-k stage expansion quality for the paper's deterministic delays",
    "extension (DESIGN.md abl1)",
    [] {
      std::vector<util::FlagSpec> flags = OperatingPointFlags();
      for (util::FlagSpec& f : CommonEvalFlags()) {
        if (f.name == "sim-time") f.default_value = "4000";
        flags.push_back(std::move(f));
      }
      return flags;
    }(),
    RunAblationStages));

const ScenarioRegistrar reg_ablation_steady(MakeScenario(
    "ablation-steady",
    "PN steady-state estimation quality vs simulation effort",
    "extension (DESIGN.md abl2)", OperatingPointFlags(), RunAblationSteady));

}  // namespace
}  // namespace wsn::scenario
