#include "scenario/studies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "core/models.hpp"
#include "des/bursty_workload.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

namespace {

/// Replication effort implied by a study's params.
netsim::ReplicationConfig RepConfig(std::size_t replications,
                                    std::uint64_t seed) {
  netsim::ReplicationConfig rep;
  rep.replications = replications;
  rep.seed = seed;
  return rep;
}

/// Flat-study config shared by the lifetime and throughput studies: a
/// node grid reporting to the origin sink.
netsim::NetSimConfig FlatGridConfig(double rate_hz, double hop_m,
                                    std::size_t cols, std::size_t rows,
                                    double spacing_m) {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = rate_hz;
  cfg.network.node.cpu.service_rate =
      10.0 * cfg.network.node.cpu.arrival_rate;
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = hop_m;
  cfg.positions = node::MakeGrid(cols, rows, spacing_m);
  return cfg;
}

}  // namespace

std::vector<node::Position> NearSquareGrid(std::size_t n, double spacing) {
  const std::size_t cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  std::vector<node::Position> positions = node::MakeGrid(cols, rows, spacing);
  positions.resize(n);
  return positions;
}

netsim::NetSimConfig BuildGridConfig(const GridStudyParams& p) {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = p.rate_hz;
  cfg.network.node.cpu.service_rate =
      10.0 * cfg.network.node.cpu.arrival_rate;
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = p.battery_mah;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = p.hop_m;
  cfg.positions = node::MakeGrid(p.cols, p.rows, p.spacing_m);
  cfg.horizon_s = p.horizon_s;

  // Optional extra sinks at the deployment corners (the default single
  // sink sits at the origin corner).
  util::Require(p.sinks >= 1 && p.sinks <= 4, "flag --sinks must be in 1..4");
  const double x_max = (static_cast<double>(p.cols) + 1.0) * p.spacing_m;
  const double y_max = (static_cast<double>(p.rows) + 1.0) * p.spacing_m;
  if (p.sinks >= 2) cfg.sinks = {{0.0, 0.0}, {x_max, y_max}};
  if (p.sinks >= 3) cfg.sinks.push_back({x_max, 0.0});
  if (p.sinks >= 4) cfg.sinks.push_back({0.0, y_max});
  return cfg;
}

void ApplyClusterKnobs(netsim::NetSimConfig& cfg, const ClusterKnobs& knobs) {
  cfg.cluster.protocol = knobs.protocol;
  cfg.cluster.head_fraction = knobs.head_fraction;
  cfg.cluster.static_heads = knobs.static_heads;
  cfg.cluster.round_s = knobs.round_s;
  cfg.cluster.aggregation = knobs.aggregation;
}

void AddLifetimeRows(ResultTable& table, const std::string& label,
                     const netsim::ReplicationSummary& summary) {
  table.AddRow({label, "time to first death (s)",
                MetricCell(summary.first_death_s, 1),
                ObservedCell(summary.first_death_s.observed,
                             summary.replications)});
  table.AddRow({label, "time to partition (s)",
                MetricCell(summary.partition_s, 1),
                ObservedCell(summary.partition_s.observed,
                             summary.replications)});
  table.AddRow({label, "delivery ratio", MetricCell(summary.delivery_ratio, 4),
                ObservedCell(summary.replications, summary.replications)});
  table.AddRow({label, "samples delivered", MetricCell(summary.delivered, 1),
                ObservedCell(summary.replications, summary.replications)});
}

void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
                         const std::string& where, std::size_t rep) {
  const std::string field = netsim::FirstReportDifference(a, b);
  if (field.empty()) return;
  throw util::Error(where + " diverged from its oracle at replication " +
                    std::to_string(rep) + " (" + field + ")");
}

void RequireConserved(const netsim::NetSimReport& report,
                      const std::string& where, std::size_t rep) {
  if (report.Conserved()) return;
  throw util::Error(
      where + " violated packet conservation at replication " +
      std::to_string(rep) + ": generated " +
      std::to_string(report.packets.generated) + " != delivered " +
      std::to_string(report.packets.delivered) + " + dropped " +
      std::to_string(report.packets.TotalDropped()) + " + in flight " +
      std::to_string(report.in_flight));
}

// ------------------------------------------------------------------------
// netsim-lifetime

ResultSet RunLifetimeStudy(const ScenarioContext& ctx,
                           const LifetimeStudyParams& p) {
  netsim::NetSimConfig cfg =
      FlatGridConfig(p.rate_hz, p.hop_m, p.cols, p.rows, p.spacing_m);
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.battery_mah = p.battery_mah;
  cfg.horizon_s = p.horizon_s;
  cfg.stop_at_partition = true;  // measure the connected phase
  cfg.timeline_interval_s = cfg.horizon_s / 20.0;

  if (!p.steady) {
    // Event-storm traffic: mostly quiet at 20% of the nominal rate, with
    // occasional bursts at 10x (long-run mean close to the nominal rate).
    const double rate = cfg.network.node.cpu.arrival_rate;
    cfg.traffic_factory = [rate](std::size_t) {
      return std::make_unique<des::MmppWorkload>(
          std::vector<double>{0.2 * rate, 10.0 * rate},
          std::vector<std::vector<double>>{{-0.02, 0.02}, {0.2, -0.2}});
    };
  }

  netsim::ReplicationConfig rep = RepConfig(p.replications, p.seed);
  rep.keep_reports = true;
  ApplyObs(ctx, cfg);

  const core::MarkovCpuModel model;
  const netsim::ReplicationSummary summary =
      RunReplications(cfg, model, rep, ctx.Executor());
  ContributeObs(ctx, summary);

  ResultSet results("netsim lifetime study: deaths, re-routing, partition");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("traffic", p.steady ? "steady Poisson" : "bursty MMPP");
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& lifetimes = results.AddTable(
      "summary", {"metric", "mean +- 95% CI", "observed in"});
  lifetimes.AddRow({"time to first death (s)",
                    MetricCell(summary.first_death_s, 1),
                    ObservedCell(summary.first_death_s.observed,
                                 summary.replications)});
  lifetimes.AddRow({"time to partition (s)",
                    MetricCell(summary.partition_s, 1),
                    ObservedCell(summary.partition_s.observed,
                                 summary.replications)});
  lifetimes.AddRow({"delivery ratio", MetricCell(summary.delivery_ratio, 4),
                    ObservedCell(summary.replications, summary.replications)});
  lifetimes.AddRow({"packets delivered", MetricCell(summary.delivered, 1),
                    ObservedCell(summary.replications, summary.replications)});

  // Zoom into replication 0: the hot path near the sink dies first.
  const netsim::NetSimReport& rep0 = summary.reports.front();
  ResultTable& nodes = results.AddTable(
      "replication-0-nodes", {"node", "pos", "generated", "forwarded",
                              "dropped", "energy (J)", "death (s)"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < rep0.nodes.size() && shown < 10; ++i) {
    const netsim::NodeSimStats& n = rep0.nodes[i];
    if (n.alive && shown >= 5) continue;  // highlight the casualties
    ++shown;
    nodes.AddRow({std::to_string(i),
                  "(" + util::FormatFixed(cfg.positions[i].x, 0) + "," +
                      util::FormatFixed(cfg.positions[i].y, 0) + ")",
                  std::to_string(n.generated), std::to_string(n.forwarded),
                  std::to_string(n.dropped),
                  util::FormatFixed(n.energy_used_j, 3),
                  std::isfinite(n.death_s) ? util::FormatFixed(n.death_s, 1)
                                           : std::string("alive")});
  }

  ResultTable& drops =
      results.AddTable("replication-0-drops", {"drop reason", "packets"});
  for (std::size_t r = 0; r < netsim::kDropReasonCount; ++r) {
    const auto reason = static_cast<netsim::DropReason>(r);
    drops.AddRow({netsim::DropReasonName(reason),
                  std::to_string(rep0.packets.Dropped(reason))});
  }

  results.AddNote(
      "replication 0: generated " + std::to_string(rep0.packets.generated) +
      ", delivered " + std::to_string(rep0.packets.delivered) +
      ", first death " +
      (std::isfinite(rep0.first_death_s)
           ? "at " + util::FormatFixed(rep0.first_death_s, 1) + " s (node " +
                 std::to_string(rep0.first_dead_node) + ")"
           : std::string("never")) +
      ", partition " +
      (std::isfinite(rep0.partition_s)
           ? "at " + util::FormatFixed(rep0.partition_s, 1) + " s"
           : std::string("never")) +
      ", " + std::to_string(rep0.events) + " events");
  return results;
}

// ------------------------------------------------------------------------
// netsim-throughput

ResultSet RunThroughputStudy(const ScenarioContext& ctx,
                             const ThroughputStudyParams& p) {
  netsim::NetSimConfig cfg =
      FlatGridConfig(p.rate_hz, p.hop_m, p.cols, p.rows, p.spacing_m);
  cfg.network.node.cpu_power = energy::Pxa271();
  cfg.horizon_s = p.horizon_s;
  // Clustered mode benchmarks the LEACH data path (elections,
  // aggregation) instead of flat greedy multi-hop.
  if (p.clustered) {
    cfg.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
    cfg.cluster.round_s = cfg.horizon_s / 5.0;
    cfg.cluster.aggregation = 4;
  }

  const netsim::ReplicationConfig rep = RepConfig(p.replications, p.seed);
  const core::MarkovCpuModel model;

  ResultSet results("netsim replication throughput: serial vs executor");
  results.SetMeta("routing",
                  p.clustered ? "clustered (leach)" : "flat greedy");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("hardware-threads",
                  std::to_string(std::thread::hardware_concurrency()));

  const auto timed = [&](util::ParallelExecutor& executor) {
    const auto start = std::chrono::steady_clock::now();
    const netsim::ReplicationSummary summary =
        RunReplications(cfg, model, rep, executor);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::make_pair(summary, wall);
  };

  util::ParallelExecutor serial_exec(1);
  const auto [serial, serial_s] = timed(serial_exec);
  // Observe only the executor leg: contributing both legs would double
  // every counter for what is conceptually one benchmarked workload.
  ApplyObs(ctx, cfg);
  const auto [parallel, parallel_s] = timed(ctx.Executor());
  ContributeObs(ctx, parallel);

  const double reps = static_cast<double>(rep.replications);
  ResultTable& table = results.AddTable(
      "throughput", {"mode", "threads", "wall (s)", "replications/s",
                     "speedup"});
  table.AddRow({"serial", "1", util::FormatFixed(serial_s, 3),
                util::FormatFixed(reps / serial_s, 2), "1.00"});
  table.AddRow({"executor", std::to_string(ctx.Executor().ThreadCount()),
                util::FormatFixed(parallel_s, 3),
                util::FormatFixed(reps / parallel_s, 2),
                util::FormatFixed(serial_s / parallel_s, 2)});

  results.AddNote("checks: delivery ratio " +
                  util::FormatInterval(serial.delivery_ratio.ci.mean,
                                       serial.delivery_ratio.ci.half_width,
                                       4) +
                  " (serial) vs " +
                  util::FormatInterval(parallel.delivery_ratio.ci.mean,
                                       parallel.delivery_ratio.ci.half_width,
                                       4) +
                  " (parallel) — identical streams, identical results");
  return results;
}

// ------------------------------------------------------------------------
// netsim-clustered

ResultSet RunClusteredStudy(const ScenarioContext& ctx,
                            const ClusteredStudyParams& p) {
  netsim::NetSimConfig cfg = BuildGridConfig(p.grid);
  ApplyClusterKnobs(cfg, p.cluster);

  netsim::ReplicationConfig rep = RepConfig(p.replications, p.seed);
  rep.keep_reports = true;  // the rotation/head tables read the reports
  ApplyObs(ctx, cfg);
  const core::MarkovCpuModel model;
  const netsim::ReplicationSummary summary =
      RunReplications(cfg, model, rep, ctx.Executor());
  ContributeObs(ctx, summary);

  ResultSet results(
      "clustered collection: rotating heads, aggregation, multi-sink");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("sinks",
                  std::to_string(netsim::EffectiveSinks(cfg).size()));
  results.SetMeta("protocol",
                  netsim::ClusterProtocolKindName(cfg.cluster.protocol));
  results.SetMeta("round", util::FormatFixed(cfg.cluster.round_s, 0) + " s");
  results.SetMeta("aggregation", std::to_string(cfg.cluster.aggregation));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& lifetimes = results.AddTable(
      "summary", {"protocol", "metric", "mean +- 95% CI", "observed in"});
  AddLifetimeRows(lifetimes,
                  netsim::ClusterProtocolKindName(cfg.cluster.protocol),
                  summary);
  ResultTable& rotation = results.AddTable(
      "rotation", {"metric", "mean over replications"});
  rotation.AddRow({"cluster rounds",
                   util::FormatFixed(
                       MeanOverReports(summary,
                                       [](const netsim::NetSimReport& r) {
                                         return static_cast<double>(r.rounds);
                                       }),
                       2)});
  rotation.AddRow(
      {"elections (rounds + repairs)",
       util::FormatFixed(
           MeanOverReports(summary,
                           [](const netsim::NetSimReport& r) {
                             return static_cast<double>(r.elections);
                           }),
           2)});
  rotation.AddRow(
      {"distinct nodes elected head",
       util::FormatFixed(
           MeanOverReports(
               summary,
               [](const netsim::NetSimReport& r) {
                 std::size_t distinct = 0;
                 for (const netsim::NodeSimStats& n : r.nodes) {
                   if (n.head_elections > 0) ++distinct;
                 }
                 return static_cast<double>(distinct);
               }),
           2)});

  // Zoom into replication 0: who served as head and what it cost them.
  const netsim::NetSimReport& rep0 = summary.reports.front();
  ResultTable& heads = results.AddTable(
      "replication-0-heads",
      {"node", "head elections", "samples aggregated", "energy (J)",
       "death (s)"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < rep0.nodes.size() && shown < 10; ++i) {
    const netsim::NodeSimStats& n = rep0.nodes[i];
    if (n.head_elections == 0) continue;
    ++shown;
    heads.AddRow({std::to_string(i), std::to_string(n.head_elections),
                  std::to_string(n.aggregated),
                  util::FormatFixed(n.energy_used_j, 3),
                  std::isfinite(n.death_s) ? util::FormatFixed(n.death_s, 1)
                                           : std::string("alive")});
  }

  ResultTable& drops =
      results.AddTable("replication-0-drops", {"drop reason", "samples"});
  for (std::size_t r = 0; r < netsim::kDropReasonCount; ++r) {
    const auto reason = static_cast<netsim::DropReason>(r);
    drops.AddRow({netsim::DropReasonName(reason),
                  std::to_string(rep0.packets.Dropped(reason))});
  }
  results.AddNote("replication 0: generated " +
                  std::to_string(rep0.packets.generated) + ", delivered " +
                  std::to_string(rep0.packets.delivered) + " samples over " +
                  std::to_string(rep0.rounds) + " rounds (" +
                  std::to_string(rep0.elections) + " elections), " +
                  std::to_string(rep0.events) + " events");
  return results;
}

// ------------------------------------------------------------------------
// netsim-heterogeneous

ResultSet RunHeterogeneousStudy(const ScenarioContext& ctx,
                                const HeterogeneousStudyParams& p) {
  util::Require(p.advanced_fraction >= 0.0 && p.advanced_fraction <= 1.0,
                "advanced fraction must be in [0, 1]");
  util::Require(p.battery_factor > 0.0, "battery factor must be positive");

  netsim::NetSimConfig cfg = BuildGridConfig(p.grid);
  cfg.rerouting = false;
  cfg.stop_at_first_death = true;

  // Named hardware profiles: "advanced" nodes carry battery_factor times
  // the standard battery.
  netsim::NodeClass standard;
  standard.name = "standard";
  standard.battery_mah = cfg.network.node.battery_mah;
  standard.battery_volts = cfg.network.node.battery_volts;
  standard.radio = cfg.network.node.radio;
  standard.listen_duty_cycle = cfg.network.node.listen_duty_cycle;
  netsim::NodeClass advanced = standard;
  advanced.name = "advanced";
  advanced.battery_mah = standard.battery_mah * p.battery_factor;

  cfg.classes = {standard, advanced};
  const std::size_t n = cfg.positions.size();
  const std::size_t advanced_count = static_cast<std::size_t>(
      std::lround(p.advanced_fraction * static_cast<double>(n)));
  cfg.node_class.assign(n, "standard");

  const core::MarkovCpuModel model;
  const node::Network analytic_net(cfg.network, cfg.positions);
  const node::NetworkReport analytic_homo = analytic_net.Evaluate(model);

  if (advanced_count > 0 && p.placement == "hotspot") {
    // Give the big batteries to the nodes the analytic estimator says
    // carry the most relay traffic — the hot path near the sink.  This
    // is where per-node hardware actually moves the first-death time.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double la = analytic_homo.nodes[a].relay_packets_per_second;
      const double lb = analytic_homo.nodes[b].relay_packets_per_second;
      if (la != lb) return la > lb;
      return a < b;
    });
    for (std::size_t j = 0; j < advanced_count; ++j) {
      cfg.node_class[order[j]] = "advanced";
    }
  } else if (advanced_count > 0 && p.placement == "spread") {
    // Evenly strided across the index order, blind to load.
    for (std::size_t j = 0; j < advanced_count; ++j) {
      const std::size_t pick = (j * n + n / 2) / advanced_count;
      cfg.node_class[std::min(pick, n - 1)] = "advanced";
    }
  } else {
    util::Require(p.placement == "hotspot" || p.placement == "spread",
                  "placement must be hotspot or spread");
  }

  netsim::NetSimConfig homogeneous = cfg;
  homogeneous.classes.clear();
  homogeneous.node_class.clear();

  const netsim::ReplicationConfig rep = RepConfig(p.replications, p.seed);
  ApplyObs(ctx, cfg);
  ApplyObs(ctx, homogeneous);
  const netsim::ReplicationSummary hetero =
      RunReplications(cfg, model, rep, ctx.Executor());
  const netsim::ReplicationSummary homo =
      RunReplications(homogeneous, model, rep, ctx.Executor());
  ContributeObs(ctx, hetero);
  ContributeObs(ctx, homo);

  // Analytic cross-check on the identical topology and per-node hardware.
  const node::NetworkReport analytic_hetero =
      analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));

  ResultSet results(
      "heterogeneous node classes: mixed batteries vs the analytic "
      "estimator");
  results.SetMeta("nodes", std::to_string(n));
  results.SetMeta("advanced nodes", std::to_string(advanced_count));
  results.SetMeta("placement", p.placement);
  results.SetMeta("battery factor", util::FormatFixed(p.battery_factor, 2));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& table = results.AddTable(
      "first-death",
      {"deployment", "simulated first death (s)", "analytic first death (s)",
       "relative error"});
  const auto row = [&](const std::string& label,
                       const netsim::ReplicationSummary& summary,
                       const node::NetworkReport& analytic) {
    // No observed death before the horizon means there is nothing to
    // compare against the analytic lifetime.
    std::string error_cell = "n/a";
    if (summary.first_death_s.observed > 0) {
      const double mean = summary.first_death_s.ci.mean;
      const double rel = std::abs(mean - analytic.network_lifetime_seconds) /
                         analytic.network_lifetime_seconds;
      error_cell = util::FormatFixed(100.0 * rel, 2) + " %";
    }
    table.AddRow({label, MetricCell(summary.first_death_s, 1),
                  util::FormatFixed(analytic.network_lifetime_seconds, 1),
                  error_cell});
  };
  row("homogeneous (all standard)", homo, analytic_homo);
  row("heterogeneous (" + std::to_string(advanced_count) + " advanced)",
      hetero, analytic_hetero);

  ResultTable& verdict = results.AddTable(
      "lifetime-gain", {"metric", "value"});
  const bool both_died = hetero.first_death_s.observed > 0 &&
                         homo.first_death_s.observed > 0;
  verdict.AddRow(
      {"first-death gain (hetero / homo)",
       both_died ? util::FormatFixed(hetero.first_death_s.ci.mean /
                                         homo.first_death_s.ci.mean,
                                     3)
                 : std::string("n/a")});
  verdict.AddRow({"analytic bottleneck node (hetero)",
                  std::to_string(analytic_hetero.bottleneck_node)});
  results.AddNote(
      "rerouting is disabled and traffic is steady Poisson, so the "
      "simulated first death is directly comparable to the analytic "
      "per-node estimate — the heterogeneous counterpart of the "
      "test_netsim convergence anchor (the first death is a minimum over "
      "nodes, so with several near-tied lifetimes the simulated mean sits "
      "slightly below the analytic value)");
  return results;
}

// ------------------------------------------------------------------------
// netsim-faults

namespace {

struct CellOutcome {
  std::uint64_t crashes = 0;     ///< summed over replications
  std::uint64_t recoveries = 0;  ///< summed over replications
  std::uint64_t in_flight = 0;   ///< summed over replications
  std::size_t partitioned = 0;   ///< reps that partitioned
  std::size_t healed = 0;        ///< reps whose partition healed
};

}  // namespace

ResultSet RunFaultStudy(const ScenarioContext& ctx,
                        const FaultStudyParams& p) {
  const double jam_duration =
      p.jam_duration_s > 0.0 ? p.jam_duration_s : p.horizon_s / 10.0;
  const double sink_outage_s =
      p.sink_outage_s > 0.0 ? p.sink_outage_s : p.horizon_s / 10.0;
  netsim::ReplicationConfig rep = RepConfig(p.replications, p.seed);
  rep.keep_reports = true;

  ResultSet results(
      "fault injection: node churn, jam windows and sink outages with "
      "differential verification of the incremental repair paths");
  results.SetMeta("nodes", std::to_string(p.nodes));
  results.SetMeta("spacing", util::FormatFixed(p.spacing_m, 0) + " m");
  results.SetMeta("hop", util::FormatFixed(p.hop_m, 0) + " m");
  results.SetMeta("rate", util::FormatFixed(p.rate_hz, 3) + " /s per node");
  results.SetMeta("horizon", util::FormatFixed(p.horizon_s, 0) + " s");
  results.SetMeta("jam-windows", std::to_string(p.jam_windows));
  results.SetMeta("sink-outages", std::to_string(p.sink_outages));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& table = results.AddTable(
      "faults",
      {"config", "crash rate (1/s)", "outage (s)", "crashes", "recoveries",
       "delivery ratio", "delivered", "partitioned", "healed", "in flight",
       "conserved"});

  const core::MarkovCpuModel model;
  // `cctx` rather than the outer ctx: under the point harness each cell
  // runs in a sub-context whose executor may live inside a forked
  // worker (scenario/harness.hpp).
  const auto run_cell = [&](const ScenarioContext& cctx,
                            netsim::NetSimConfig cfg,
                            const std::string& label)
      -> std::pair<netsim::ReplicationSummary, CellOutcome> {
    ApplyObs(cctx, cfg);
    netsim::ReplicationSummary summary =
        RunReplications(cfg, model, rep, cctx.Executor());
    ContributeObs(cctx, summary);

    // Oracle twin: identical streams, full recompute after every fault
    // event.  The oracle batch contributes no observability output —
    // it exists only to be compared against.
    netsim::NetSimConfig twin = cfg;
    twin.obs = obs::ObsConfig{};
    twin.oracle = true;
    const netsim::ReplicationSummary shadow =
        RunReplications(twin, model, rep, cctx.Executor());

    CellOutcome out;
    for (std::size_t r = 0; r < summary.reports.size(); ++r) {
      const netsim::NetSimReport& report = summary.reports[r];
      RequireEqualReports(report, shadow.reports[r],
                          "netsim-faults: " + label, r);
      RequireConserved(report, "netsim-faults: " + label, r);
      out.crashes += report.crashes;
      out.recoveries += report.recoveries;
      out.in_flight += report.in_flight;
      const double inf = std::numeric_limits<double>::infinity();
      if (report.partition_s != inf) ++out.partitioned;
      if (report.heal_s != inf) ++out.healed;
    }
    return {std::move(summary), out};
  };

  for (const double crash_rate : p.crash_rates) {
    for (const double outage : p.outages) {
      netsim::NetSimConfig cfg;
      cfg.network.node.cpu.arrival_rate = p.rate_hz;
      cfg.network.node.cpu.service_rate = 10.0 * std::max(p.rate_hz, 0.1);
      cfg.network.node.cpu_power = energy::Msp430();
      cfg.network.node.sample_bits = 1024;
      cfg.network.node.listen_duty_cycle = 0.01;
      cfg.network.sink = {0.0, 0.0};
      cfg.network.max_hop_m = p.hop_m;
      cfg.positions = NearSquareGrid(p.nodes, p.spacing_m);
      cfg.horizon_s = p.horizon_s;
      cfg.faults.crash_rate_hz = crash_rate;
      cfg.faults.mean_outage_s = outage;
      cfg.faults.jam_windows = p.jam_windows;
      cfg.faults.jam_radius_m = p.jam_radius_m;
      cfg.faults.jam_duration_s = jam_duration;
      cfg.faults.jam_p_loss = p.jam_p_loss;
      cfg.faults.sink_outages = p.sink_outages;
      cfg.faults.sink_outage_s = sink_outage_s;

      // One sweep point per (mode, crash rate, outage): each runs (or
      // replays) through the point harness, with the whole production-
      // vs-oracle differential inside the point.
      const auto point_row = [&](const ScenarioContext& cctx,
                                 netsim::NetSimConfig cell_cfg,
                                 const std::string& label)
          -> std::vector<std::string> {
        const auto [summary, out] = run_cell(cctx, std::move(cell_cfg), label);
        return {label,
                util::FormatFixed(crash_rate, 4),
                util::FormatFixed(outage, 0),
                std::to_string(out.crashes),
                std::to_string(out.recoveries),
                MetricCell(summary.delivery_ratio, 4),
                MetricCell(summary.delivered, 1),
                ObservedCell(out.partitioned, summary.replications),
                ObservedCell(out.healed, summary.replications),
                std::to_string(out.in_flight),
                "yes"};
      };
      const std::string suffix = " r=" + util::FormatFixed(crash_rate, 4) +
                                 " o=" + util::FormatFixed(outage, 0);

      RunPointRow(ctx, table, "faults:flat" + suffix, p.seed, "flat" + suffix,
                  [&](const ScenarioContext& cctx, const PointEnv&) {
                    return point_row(cctx, cfg, "flat" + suffix);
                  });

      netsim::NetSimConfig ccfg = cfg;
      ccfg.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
      ccfg.cluster.head_fraction = 0.1;
      ccfg.cluster.round_s = p.horizon_s / 10.0;
      ccfg.cluster.aggregation = 4;
      RunPointRow(ctx, table, "faults:clustered" + suffix, p.seed,
                  "clustered" + suffix,
                  [&](const ScenarioContext& cctx, const PointEnv&) {
                    return point_row(cctx, ccfg, "clustered" + suffix);
                  });
    }
  }

  results.AddNote(
      "every replication ran twice: the production paths (incremental "
      "routing repair / grid head assignment) against their oracle "
      "(full recompute after every fault event / all-pairs assignment); "
      "the run aborts on any field divergence or packet-conservation "
      "violation, so a completed table doubles as a chaos-differential "
      "pass.  'healed' counts replications whose partition later closed "
      "when a crashed cut vertex recovered.  All columns are "
      "deterministic per seed: rerunning with any --threads value must "
      "produce byte-identical output.");
  return results;
}

}  // namespace wsn::scenario
