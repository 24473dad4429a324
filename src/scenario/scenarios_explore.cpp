// Registered design-exploration scenarios, ported from the standalone
// example mains: duty-cycle trade-off exploration, the six-way model
// comparison, and static whole-network lifetime estimation.
#include <iterator>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/models.hpp"
#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {
namespace {

// Power-management design exploration: for a given workload, sweep the
// Power Down Threshold and report the energy/latency trade-off.  Uses
// the fast closed-form Markov model for the sweep and cross-checks the
// chosen operating point against the Petri net.
ResultSet RunDutyCycle(const ScenarioContext& ctx) {
  core::CpuParams params;
  params.arrival_rate = ctx.Args().GetDouble("lambda", 0.2);
  params.service_rate = 10.0;
  params.power_up_delay = ctx.Args().GetDouble("pud", 0.05);
  const std::size_t points = ctx.Args().GetCount("points", 13, 2);

  ResultSet results("Duty-cycle exploration: energy/latency trade-off over "
                    "the Power Down Threshold");
  results.SetMeta("lambda", util::FormatFixed(params.arrival_rate, 3) + "/s");
  results.SetMeta("pud", util::FormatFixed(params.power_up_delay, 3) + " s");

  const auto pxa = energy::Pxa271();
  const core::MarkovCpuModel markov;

  struct PointRow {
    double pdt;
    double energy;
    double latency;
    double standby_pct;
    double idle_pct;
  };
  const std::vector<PointRow> rows =
      ctx.Executor().Map(points, [&](std::size_t i) {
        const double pdt =
            3.0 * static_cast<double>(i) / static_cast<double>(points - 1);
        core::CpuParams p = params;
        p.power_down_threshold = pdt;
        const auto eval = markov.Evaluate(p);
        return PointRow{pdt, core::EnergyJoules(eval, pxa, 1000.0),
                        eval.mean_latency, eval.shares.standby * 100.0,
                        eval.shares.idle * 100.0};
      });

  ResultTable& table = results.AddTable(
      "trade-off", {"PDT(s)", "energy(J/1000s)", "mean latency(s)",
                    "standby%", "idle%"});
  double best_pdt = 0.0;
  double best_cost = 1e300;
  for (const PointRow& row : rows) {
    table.AddNumericRow(
        {row.pdt, row.energy, row.latency, row.standby_pct, row.idle_pct}, 3);
    // Simple scalarized objective: energy plus a latency penalty.
    const double cost = row.energy + 200.0 * row.latency;
    if (cost < best_cost) {
      best_cost = cost;
      best_pdt = row.pdt;
    }
  }
  results.AddNote("Chosen operating point (min energy + 200 J/s x latency): "
                  "PDT = " +
                  util::FormatFixed(best_pdt, 3) + " s");

  // Cross-check the chosen point with the Petri net (the paper's point:
  // trust the PN when deterministic delays matter).
  core::EvalConfig cfg;
  cfg.sim_time = 2000.0;
  cfg.replications = 12;
  cfg.threads = 1;
  const core::PetriNetCpuModel pn(cfg);
  core::CpuParams chosen = params;
  chosen.power_down_threshold = best_pdt;
  results.AddNote(
      "Cross-check at chosen point:  markov energy = " +
      util::FormatFixed(
          core::EnergyJoules(markov.Evaluate(chosen), pxa, 1000.0), 2) +
      " J,  petri-net energy = " +
      util::FormatFixed(core::EnergyJoules(pn.Evaluate(chosen), pxa, 1000.0),
                        2) +
      " J");
  return results;
}

// Model comparison across the paper's parameter plane: the three paper
// models side by side plus the extended solvers this library adds.
ResultSet RunModelComparison(const ScenarioContext& ctx) {
  core::CpuParams base;
  base.power_up_delay = ctx.Args().GetDouble("pud", 0.3);

  core::EvalConfig cfg;
  cfg.sim_time = ctx.Args().GetDouble("sim-time", 2000.0);
  cfg.replications = ctx.Args().GetCount("replications", 16, 1);
  cfg.threads = 1;

  const auto grid = core::PaperPdtGrid(ctx.Args().GetCount("points", 6, 2));
  const auto pxa = energy::Pxa271();

  const core::SimulationCpuModel sim(cfg);
  const core::MarkovCpuModel markov;
  const core::PetriNetCpuModel pn(cfg);
  const core::StagesMarkovCpuModel stages(20);
  const core::PetriSolverCpuModel solver(20);
  const core::DspnExactCpuModel exact;
  const core::CpuEnergyModel* models[] = {&sim,    &markov, &pn,
                                          &stages, &solver, &exact};

  ResultSet results("Model comparison: six evaluation methods");
  results.SetMeta("pud", util::FormatFixed(base.power_up_delay, 3) + " s");
  results.SetMeta("sim-time", util::FormatFixed(cfg.sim_time, 0) + " s");
  results.SetMeta("replications", std::to_string(cfg.replications));

  // One job per (point, model) cell of the comparison grid.
  const std::size_t n_models = std::size(models);
  const std::vector<double> idle_cells = ctx.Executor().Map(
      grid.size() * n_models, [&](std::size_t job) {
        core::CpuParams p = base;
        p.power_down_threshold = grid[job / n_models];
        return models[job % n_models]->Evaluate(p).shares.idle;
      });

  ResultTable& idle = results.AddTable(
      "idle-share", {"PDT(s)", "DES sim", "supp.var Markov", "PN token game",
                     "stages CTMC k=20", "PN solver k=20", "DSPN exact"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<double> row{grid[i]};
    for (std::size_t m = 0; m < n_models; ++m) {
      row.push_back(idle_cells[i * n_models + m]);
    }
    idle.AddNumericRow(row, 4);
  }

  core::CpuParams p = base;
  p.power_down_threshold = 0.5;
  ResultTable& etab = results.AddTable("energy-at-pdt-0.5",
                                       {"model", "energy(J)"});
  for (const auto* model : models) {
    etab.AddRow({model->Name(),
                 util::FormatFixed(
                     core::EnergyJoules(model->Evaluate(p), pxa, 1000.0), 3)});
  }
  return results;
}

// WSN application (the paper's motivating scenario): static sensor-node
// and network lifetime estimation for a grid deployment.
ResultSet RunWsnLifetime(const ScenarioContext& ctx) {
  node::NetworkConfig cfg;
  cfg.node.cpu.arrival_rate = ctx.Args().GetDouble("rate", 0.5);
  cfg.node.cpu.service_rate = 10.0;
  cfg.node.cpu.power_down_threshold = 0.1;
  cfg.node.cpu.power_up_delay = 0.001;
  const std::string cpu = ctx.Args().GetString("cpu", "pxa271");
  cfg.node.cpu_power = cpu == "msp430"   ? energy::Msp430()
                       : cpu == "atmega" ? energy::Atmega128L()
                                         : energy::Pxa271();
  cfg.node.sample_bits = 256;
  cfg.node.listen_duty_cycle = 0.01;
  cfg.node.battery_mah = 2500.0;
  cfg.sink = {0.0, 0.0};
  cfg.max_hop_m = ctx.Args().GetDouble("hop", 50.0);

  const auto positions =
      node::MakeGrid(ctx.Args().GetCount("cols", 4, 1),
                     ctx.Args().GetCount("rows", 4, 1),
                     ctx.Args().GetDouble("spacing", 30.0));
  const node::Network network(cfg, positions);

  const core::MarkovCpuModel cpu_model;
  const node::NetworkReport report = network.Evaluate(cpu_model);

  ResultSet results("WSN lifetime estimation (static analytic model)");
  results.SetMeta("nodes", std::to_string(positions.size()));
  results.SetMeta("cpu", cfg.node.cpu_power.name);
  results.SetMeta("rate",
                  util::FormatFixed(cfg.node.cpu.arrival_rate, 3) +
                      " samples/s");

  ResultTable& table = results.AddTable(
      "per-node", {"node", "pos", "next-hop", "relay pkts/s",
                   "avg power (mW)", "lifetime (days)"});
  for (const node::NodeReport& n : report.nodes) {
    std::string pos = "(";
    pos += util::FormatFixed(positions[n.index].x, 0);
    pos += ',';
    pos += util::FormatFixed(positions[n.index].y, 0);
    pos += ')';
    table.AddRow(
        {std::to_string(n.index), std::move(pos),
         n.next_hop == n.index ? std::string("sink")
                               : std::to_string(n.next_hop),
         util::FormatFixed(n.relay_packets_per_second, 2),
         util::FormatFixed(n.average_power_mw, 3),
         util::FormatFixed(n.lifetime_seconds / 86400.0, 1)});
  }
  results.AddNote(
      "Network lifetime (first node death): " +
      util::FormatFixed(report.network_lifetime_seconds / 86400.0, 1) +
      " days (bottleneck: node " + std::to_string(report.bottleneck_node) +
      ", the relay closest to the sink)");
  return results;
}

const ScenarioRegistrar reg_duty_cycle(MakeScenario(
    "duty-cycle",
    "energy/latency trade-off sweep with a PN cross-check at the optimum",
    "extension (design exploration)",
    {
        {"lambda", "L", "0.2", "job arrival rate (1/s)"},
        {"pud", "D", "0.05", "Power Up Delay (s)"},
        {"points", "K", "13", "sweep resolution over PDT in [0, 3] s"},
    },
    RunDutyCycle));

const ScenarioRegistrar reg_model_comparison(MakeScenario(
    "model-comparison",
    "idle share and energy from all six evaluation methods side by side",
    "extension (paper models + numerical solvers)",
    {
        {"pud", "D", "0.3", "Power Up Delay (s)"},
        {"points", "K", "6", "sweep resolution over the PDT grid (>= 2)"},
        {"sim-time", "S", "2000", "simulated horizon per replication (s)"},
        {"replications", "R", "16", "independent replications (>= 1)"},
    },
    RunModelComparison));

const ScenarioRegistrar reg_wsn_lifetime(MakeScenario(
    "wsn-lifetime",
    "static per-node and network lifetime for a grid deployment",
    "paper Section 5 (motivating application)",
    {
        {"cols", "C", "4", "grid columns"},
        {"rows", "R", "4", "grid rows"},
        {"spacing", "M", "30", "grid spacing (m)"},
        {"rate", "L", "0.5", "per-node sample rate (1/s)"},
        {"hop", "M", "50", "max radio hop range (m)"},
        {"cpu", "NAME", "pxa271", "power table: pxa271, msp430 or atmega"},
    },
    RunWsnLifetime));

}  // namespace
}  // namespace wsn::scenario
