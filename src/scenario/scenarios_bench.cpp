// Registered hot-path benchmark scenario: the BENCH_hotpath.json
// producer that starts the repo's performance trajectory.
//
// Three sections, each a table in the ResultSet:
//   * kernel    — DES event throughput of the slab/InlineAction kernel on
//                 a deterministic schedule/fire/cancel workload;
//   * netsim    — packet-level replication rate on a node grid;
//   * transient — 200-point transient-trajectory latency, incremental
//                 TransientSolver vs per-point single-shot recompute.
//
// The kernel itself is pinned by the randomized differential against a
// std::set reference in tests/test_event_queue.cpp.
// tools/bench_compare.py diffs two JSON outputs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "des/simulator.hpp"
#include "obs/session.hpp"
#include "util/error.hpp"
#include "markov/transient.hpp"
#include "netsim/replication.hpp"
#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {
namespace {

std::string FormatExp(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Deterministic netsim-shaped kernel workload: `chains` self-rescheduling
// event chains (a packet TX cycle), each refreshing a far-future shadow
// timer (a death timer: cancel + reschedule) every `cancel_every` fires.
struct KernelWorkload {
  des::Simulator& sim;
  std::size_t cancel_every;
  std::vector<des::EventId> shadow;
  std::vector<std::uint64_t> fires;
  std::uint64_t lcg;

  KernelWorkload(des::Simulator& s, std::size_t chains,
                 std::size_t cancel_each, std::uint64_t seed)
      : sim(s), cancel_every(cancel_each), shadow(chains, 0),
        fires(chains, 0), lcg(seed * 2862933555777941757ULL + 3037000493ULL) {
    for (std::size_t i = 0; i < chains; ++i) {
      sim.ScheduleAt(NextDelay(), [this, i] { Fire(i); });
    }
  }

  double NextDelay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return 0.5 + static_cast<double>(lcg >> 11) * 0x1.0p-53;
  }

  void Fire(std::size_t i) {
    ++fires[i];
    sim.ScheduleAfter(NextDelay(), [this, i] { Fire(i); });
    if (fires[i] % cancel_every == 0) {
      if (shadow[i] != 0) sim.Cancel(shadow[i]);
      shadow[i] = sim.ScheduleAfter(1.0e9, [] {});
    }
  }
};

struct KernelRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  des::Simulator::KernelStats stats{};
};

KernelRun TimeKernel(std::uint64_t target_events, std::size_t chains,
                     std::size_t cancel_every, std::uint64_t seed) {
  des::Simulator sim;
  KernelWorkload load(sim, chains, cancel_every, seed);
  const auto start = std::chrono::steady_clock::now();
  while (sim.ProcessedEvents() < target_events && sim.Step()) {
  }
  KernelRun run;
  run.wall_s = Seconds(start);
  run.events = sim.ProcessedEvents();
  run.stats = sim.Stats();
  return run;
}

// -------------------------------------------------------------- scenario
ResultSet RunBenchHotpath(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  const std::uint64_t events = args.GetCount("events", 2000000, 1000);
  const std::size_t chains = args.GetCount("chains", 1024, 1);
  const std::size_t cancel_every = args.GetCount("cancel-every", 4, 1);
  const std::size_t reps = args.GetCount("replications", 16, 1);
  const std::size_t traj_points = args.GetCount("traj-points", 200, 2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetCount("seed", 2008));

  ResultSet results("hot-path benchmark: DES kernel, netsim, transient");
  results.SetMeta("events", std::to_string(events));
  results.SetMeta("chains", std::to_string(chains));
  results.SetMeta("cancel-every", std::to_string(cancel_every));
  results.SetMeta("replications", std::to_string(reps));
  results.SetMeta("traj-points", std::to_string(traj_points));
  results.SetMeta("seed", std::to_string(seed));

  // --- kernel event throughput --------------------------------------
  const KernelRun slab = TimeKernel(events, chains, cancel_every, seed);
  ResultTable& kernel =
      results.AddTable("kernel", {"path", "events", "wall (s)", "events/s"});
  kernel.AddRow({"slab (InlineAction event records)",
                 std::to_string(slab.events),
                 util::FormatFixed(slab.wall_s, 4),
                 util::FormatFixed(static_cast<double>(slab.events) /
                                       slab.wall_s, 0)});

  // With an obs session active, fold the slab kernel's deterministic
  // counters into the bench JSON (keyed rows for bench_compare.py) and
  // into the --metrics registry.  Gated so the default output — and the
  // committed BENCH baselines — stay byte-identical.
  if (ctx.obs != nullptr && ctx.obs->MetricsEnabled()) {
    ResultTable& kmetrics =
        results.AddTable("kernel-metrics", {"key", "value"});
    const auto krow = [&](const std::string& name, std::uint64_t v) {
      kmetrics.AddRow({name, std::to_string(v)});
    };
    krow("bench.kernel.scheduled", slab.stats.scheduled);
    krow("bench.kernel.fired", slab.stats.fired);
    krow("bench.kernel.cancelled", slab.stats.cancelled);
    krow("bench.kernel.slab_reuses", slab.stats.slab_reuses);
    krow("bench.kernel.live_hwm", slab.stats.live_hwm);
    krow("bench.kernel.slab_slots", slab.stats.slab_slots);

    obs::MetricsSnapshot kernel_metrics;
    kernel_metrics.counters["bench.kernel.scheduled"] = slab.stats.scheduled;
    kernel_metrics.counters["bench.kernel.fired"] = slab.stats.fired;
    kernel_metrics.counters["bench.kernel.cancelled"] = slab.stats.cancelled;
    kernel_metrics.counters["bench.kernel.slab_reuses"] =
        slab.stats.slab_reuses;
    kernel_metrics.gauges["bench.kernel.live_hwm"] =
        static_cast<double>(slab.stats.live_hwm);
    kernel_metrics.gauges["bench.kernel.slab_slots"] =
        static_cast<double>(slab.stats.slab_slots);
    ctx.obs->Contribute(kernel_metrics, std::string());
  }

  // --- netsim replication rate --------------------------------------
  netsim::NetSimConfig net;
  net.network.node.cpu.arrival_rate = 2.0;
  net.network.node.cpu.service_rate = 20.0;
  net.network.node.sample_bits = 1024;
  net.network.node.listen_duty_cycle = 0.01;
  net.network.node.cpu_power = energy::Pxa271();
  net.network.sink = {0.0, 0.0};
  net.network.max_hop_m = 40.0;
  net.positions = node::MakeGrid(8, 8, 25.0);
  net.horizon_s = args.GetDouble("net-horizon", 30.0);

  netsim::ReplicationConfig rep;
  rep.replications = reps;
  rep.seed = seed;
  rep.keep_reports = true;

  const core::MarkovCpuModel cpu_model;
  ApplyObs(ctx, net);
  const auto net_start = std::chrono::steady_clock::now();
  const netsim::ReplicationSummary summary =
      RunReplications(net, cpu_model, rep, ctx.Executor());
  const double net_wall = Seconds(net_start);
  ContributeObs(ctx, summary);
  std::uint64_t net_events = 0;
  for (const netsim::NetSimReport& report : summary.reports) {
    net_events += report.events;
  }

  ResultTable& netsim_table = results.AddTable(
      "netsim", {"nodes", "horizon (s)", "replications", "wall (s)",
                 "replications/s", "events/s"});
  netsim_table.AddRow(
      {std::to_string(net.positions.size()),
       util::FormatFixed(net.horizon_s, 0), std::to_string(reps),
       util::FormatFixed(net_wall, 4),
       util::FormatFixed(static_cast<double>(reps) / net_wall, 2),
       util::FormatFixed(static_cast<double>(net_events) / net_wall, 0)});

  // --- transient trajectory latency ---------------------------------
  const markov::TransientCpuAnalysis transient(1.0, 10.0, 0.2, 0.1, 8);
  std::vector<double> grid(traj_points);
  const double t_max = 25.0;
  for (std::size_t i = 0; i < traj_points; ++i) {
    grid[i] = t_max * static_cast<double>(i) /
              static_cast<double>(traj_points - 1);
  }

  const auto inc_start = std::chrono::steady_clock::now();
  const std::vector<markov::TransientPoint> incremental =
      transient.Trajectory(grid);
  const double inc_wall = Seconds(inc_start);

  // Pre-PR shape: one full uniformization series from t = 0 per point.
  const auto shot_start = std::chrono::steady_clock::now();
  std::vector<markov::TransientPoint> single_shot;
  single_shot.reserve(traj_points);
  for (double t : grid) single_shot.push_back(transient.At(t));
  const double shot_wall = Seconds(shot_start);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < traj_points; ++i) {
    max_diff = std::max(
        max_diff, std::abs(incremental[i].p_idle - single_shot[i].p_idle));
  }
  if (max_diff > 1e-9) {
    throw util::Error("transient benchmark: incremental and single-shot "
                      "trajectories diverged");
  }

  ResultTable& transient_table = results.AddTable(
      "transient", {"path", "points", "wall (ms)", "points/s", "speedup"});
  transient_table.AddRow(
      {"single-shot per point", std::to_string(traj_points),
       util::FormatFixed(shot_wall * 1000.0, 2),
       util::FormatFixed(static_cast<double>(traj_points) / shot_wall, 1),
       "1.00"});
  transient_table.AddRow(
      {"incremental TransientSolver", std::to_string(traj_points),
       util::FormatFixed(inc_wall * 1000.0, 2),
       util::FormatFixed(static_cast<double>(traj_points) / inc_wall, 1),
       util::FormatFixed(shot_wall / inc_wall, 2)});

  results.AddNote("transient max |diff| " + FormatExp(max_diff) +
                  "; timings are wall-clock and machine-dependent — "
                  "compare two runs with tools/bench_compare.py");
  return results;
}

// Fig. 4-style artifact on the time axis: state shares along a transient
// trajectory from the paper's cold start, one incremental solver pass.
ResultSet RunTransientTrajectory(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  const std::size_t points = args.GetCount("points", 40, 2);
  const std::size_t stages = args.GetCount("stages", 8, 1);
  const double t_max = args.GetDouble("t-max", 25.0);
  const double lambda = args.GetDouble("rate", 1.0);
  const double mu = args.GetDouble("service-rate", 10.0);
  const double pdt = args.GetDouble("pdt", 0.2);
  const double pud = args.GetDouble("pud", 0.1);

  const markov::TransientCpuAnalysis analysis(lambda, mu, pdt, pud, stages);
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = t_max * static_cast<double>(i) /
              static_cast<double>(points - 1);
  }
  const std::vector<markov::TransientPoint> traj = analysis.Trajectory(grid);

  ResultSet results("transient state shares from cold start (standby)");
  results.SetMeta("stages", std::to_string(stages));
  results.SetMeta("pdt", util::FormatFixed(pdt, 3) + " s");
  results.SetMeta("pud", util::FormatFixed(pud, 3) + " s");

  ResultTable& table = results.AddTable(
      "state-shares", {"t(s)", "standby%", "powerup%", "idle%", "active%",
                       "mean jobs"});
  for (const markov::TransientPoint& p : traj) {
    table.AddNumericRow({p.time, p.p_standby * 100.0, p.p_powerup * 100.0,
                         p.p_idle * 100.0, p.p_active * 100.0, p.mean_jobs},
                        3);
  }

  const markov::StagesResult limit = analysis.StationaryLimit();
  results.AddNote("stationary limit: standby " +
                  util::FormatFixed(limit.p_standby * 100.0, 2) +
                  "%, idle " + util::FormatFixed(limit.p_idle * 100.0, 2) +
                  "%, active " + util::FormatFixed(limit.p_active * 100.0, 2) +
                  "% — the trajectory converges to these shares");
  return results;
}

const ScenarioRegistrar reg_bench_hotpath(MakeScenario(
    "bench-hotpath",
    "hot-path throughput: DES kernel, netsim rate, transient trajectory "
    "latency",
    "extension (engineering benchmark, BENCH_hotpath.json)",
    {
        {"events", "N", "2000000", "kernel events to fire (>= 1000)"},
        {"chains", "N", "1024", "concurrent self-rescheduling chains"},
        {"cancel-every", "K", "4", "refresh a shadow timer every K fires"},
        {"replications", "R", "16", "netsim replications (>= 1)"},
        {"net-horizon", "S", "30", "netsim horizon (s)"},
        {"traj-points", "N", "200", "transient trajectory grid points"},
        {"seed", "N", "2008", "master RNG seed (non-negative)"},
    },
    RunBenchHotpath));

const ScenarioRegistrar reg_transient_trajectory(MakeScenario(
    "transient",
    "state shares along a transient trajectory (incremental solver)",
    "extension (Fig. 4 style, time axis)",
    {
        {"points", "N", "40", "trajectory grid points (>= 2)"},
        {"stages", "K", "8", "Erlang stages for the deterministic delays"},
        {"t-max", "S", "25", "trajectory end time (s)"},
        {"rate", "L", "1", "arrival rate (1/s)"},
        {"service-rate", "M", "10", "service rate (1/s)"},
        {"pdt", "S", "0.2", "Power Down Threshold (s)"},
        {"pud", "S", "0.1", "Power Up Delay (s)"},
    },
    RunTransientTrajectory));

}  // namespace
}  // namespace wsn::scenario
