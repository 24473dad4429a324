#include "scenario/studies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/models.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "util/error.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

namespace {

/// Standard lifetime metric rows (first death, partition, delivery
/// ratio, samples delivered) labelled with `label`.
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

/// Mean of a per-report extractor over all replications.
template <typename Fn>
double MeanOverReports(const netsim::ReplicationSummary& summary, Fn&& fn) {
  util::RunningStats stats;
  for (const netsim::NetSimReport& report : summary.reports) {
    stats.Add(fn(report));
  }
  return stats.Mean();
}

}  // namespace

void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
                         const std::string& where, std::size_t rep) {
  const std::string field = netsim::FirstReportDifference(a, b);
  if (field.empty()) return;
  throw util::Error(where + " diverged from its oracle at replication " +
                    std::to_string(rep) + " (" + field + ")");
}

netsim::ReplicationSummary RunCheckedBatch(const ScenarioContext& ctx,
                                           netsim::NetSimConfig cfg,
                                           const ScenarioSpec& spec,
                                           const std::string& label,
                                           bool oracle) {
  netsim::ReplicationConfig rep;
  rep.replications = spec.replications;
  rep.seed = spec.seed;
  rep.keep_reports = true;
  const core::MarkovCpuModel model;
  ApplyObs(ctx, cfg);
  netsim::ReplicationSummary summary =
      RunReplications(cfg, model, rep, ctx.Executor());
  ContributeObs(ctx, summary);
  for (std::size_t r = 0; r < summary.reports.size(); ++r) {
    const netsim::NetSimReport& report = summary.reports[r];
    if (report.Conserved()) continue;
    throw util::Error(
        label + " violated packet conservation at replication " +
        std::to_string(r) + ": generated " +
        std::to_string(report.packets.generated) + " != delivered " +
        std::to_string(report.packets.delivered) + " + dropped " +
        std::to_string(report.packets.TotalDropped()) + " + in flight " +
        std::to_string(report.in_flight));
  }
  if (!oracle) return summary;

  // The oracle twin runs on identical streams and contributes no
  // observability output: it exists only to be compared against.
  cfg.obs = obs::ObsConfig{};
  cfg.oracle = true;
  const netsim::ReplicationSummary shadow =
      RunReplications(cfg, model, rep, ctx.Executor());
  for (std::size_t r = 0; r < summary.reports.size(); ++r) {
    RequireEqualReports(summary.reports[r], shadow.reports[r], label, r);
  }
  return summary;
}

// ------------------------------------------------------------------------
// netsim-lifetime

ResultSet RunLifetimeStudy(const ScenarioContext& ctx,
                           const ScenarioSpec& spec) {
  netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
  cfg.timeline_interval_s = cfg.horizon_s / 20.0;  // ticks count as events
  const netsim::ReplicationSummary summary =
      RunCheckedBatch(ctx, cfg, spec, "netsim-lifetime", false);

  ResultSet results("netsim lifetime study: deaths, re-routing, partition");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("traffic", spec.traffic == "steady" ? "steady Poisson"
                                                      : "bursty MMPP");
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("seed", std::to_string(spec.seed));

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
    std::string pos = "(";
    pos += util::FormatFixed(cfg.positions[i].x, 0);
    pos += ',';
    pos += util::FormatFixed(cfg.positions[i].y, 0);
    pos += ')';
    nodes.AddRow({std::to_string(i), std::move(pos),
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
                             const ScenarioSpec& spec) {
  // The grid on the Pxa271 CPU; clustered mode benchmarks the LEACH
  // data path (elections, aggregation) instead of flat greedy multi-hop.
  netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
  cfg.network.node.cpu_power = energy::Pxa271();
  if (spec.clustered) cfg.cluster.round_s = cfg.horizon_s / 5.0;

  ResultSet results("netsim replication throughput: serial vs executor");
  results.SetMeta("routing",
                  spec.clustered ? "clustered (leach)" : "flat greedy");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("hardware-threads",
                  std::to_string(std::thread::hardware_concurrency()));

  const auto timed = [&](const ScenarioContext& leg,
                         const std::string& label) {
    const auto start = std::chrono::steady_clock::now();
    const netsim::ReplicationSummary summary =
        RunCheckedBatch(leg, cfg, spec, label, false);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::make_pair(summary, wall);
  };

  // Observe only the executor leg: contributing both legs would double
  // every counter for what is conceptually one benchmarked workload.
  util::ParallelExecutor serial_exec(1);
  ScenarioContext serial_ctx;
  serial_ctx.executor = &serial_exec;
  const auto [serial, serial_s] =
      timed(serial_ctx, "netsim-throughput serial leg");
  const auto [parallel, parallel_s] =
      timed(ctx, "netsim-throughput executor leg");

  const double reps = static_cast<double>(spec.replications);
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
                            const ScenarioSpec& spec) {
  const netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
  const netsim::ReplicationSummary summary =
      RunCheckedBatch(ctx, cfg, spec, "netsim-clustered", false);

  ResultSet results(
      "clustered collection: rotating heads, aggregation, multi-sink");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("sinks",
                  std::to_string(netsim::EffectiveSinks(cfg).size()));
  results.SetMeta("protocol",
                  netsim::ClusterProtocolKindName(cfg.cluster.protocol));
  results.SetMeta("round", util::FormatFixed(cfg.cluster.round_s, 0) + " s");
  results.SetMeta("aggregation", std::to_string(cfg.cluster.aggregation));
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("seed", std::to_string(spec.seed));

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
                                const ScenarioSpec& spec) {
  const netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
  const std::size_t n = cfg.positions.size();
  const std::size_t advanced_count = static_cast<std::size_t>(
      std::count(cfg.node_class.begin(), cfg.node_class.end(), "advanced"));
  netsim::NetSimConfig homogeneous = cfg;
  homogeneous.classes.clear();
  homogeneous.node_class.clear();

  const netsim::ReplicationSummary hetero =
      RunCheckedBatch(ctx, cfg, spec, "netsim-heterogeneous", false);
  const netsim::ReplicationSummary homo = RunCheckedBatch(
      ctx, homogeneous, spec, "netsim-heterogeneous homogeneous twin", false);

  // Analytic cross-check on the identical topology and per-node hardware.
  const core::MarkovCpuModel model;
  const node::Network analytic_net(cfg.network, cfg.positions);
  const node::NetworkReport analytic_homo = analytic_net.Evaluate(model);
  const node::NetworkReport analytic_hetero =
      analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));

  ResultSet results(
      "heterogeneous node classes: mixed batteries vs the analytic "
      "estimator");
  results.SetMeta("nodes", std::to_string(n));
  results.SetMeta("advanced nodes", std::to_string(advanced_count));
  results.SetMeta("placement", spec.placement);
  results.SetMeta("battery factor", util::FormatFixed(spec.battery_factor, 2));
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("seed", std::to_string(spec.seed));

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

ResultSet RunFaultStudy(const ScenarioContext& ctx, const ScenarioSpec& spec) {
  ResultSet results(
      "fault injection: node churn, jam windows and sink outages with "
      "differential verification of the incremental repair paths");
  results.SetMeta("nodes", std::to_string(spec.nodes));
  results.SetMeta("spacing", util::FormatFixed(spec.spacing_m, 0) + " m");
  results.SetMeta("hop", util::FormatFixed(spec.hop_m, 0) + " m");
  results.SetMeta("rate", util::FormatFixed(spec.rate_hz, 3) + " /s per node");
  results.SetMeta("horizon", util::FormatFixed(spec.horizon_s, 0) + " s");
  results.SetMeta("jam-windows", std::to_string(spec.jam_windows));
  results.SetMeta("sink-outages", std::to_string(spec.sink_outages));
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("seed", std::to_string(spec.seed));

  ResultTable& table = results.AddTable(
      "faults",
      {"config", "crash rate (1/s)", "outage (s)", "crashes", "recoveries",
       "delivery ratio", "delivered", "partitioned", "healed", "in flight",
       "conserved"});

  for (const double crash_rate : spec.crash_rates) {
    for (const double outage : spec.outages) {
      ScenarioSpec flat = spec;
      flat.crash_rate_hz = crash_rate;
      flat.outage_s = outage;
      ScenarioSpec clustered = flat;
      clustered.clustered = true;
      clustered.round_s = spec.horizon_s / 10.0;

      // One sweep point per (mode, crash rate, outage): each runs (or
      // replays) through the point harness, with the whole production-
      // vs-oracle differential inside the point.  `cctx` rather than the
      // outer ctx: under the point harness each cell runs in a
      // sub-context whose executor may live inside a forked worker
      // (scenario/harness.hpp).
      const auto point_row = [&](const ScenarioContext& cctx,
                                 const ScenarioSpec& cell,
                                 const std::string& label)
          -> std::vector<std::string> {
        const netsim::ReplicationSummary summary =
            RunCheckedBatch(cctx, BuildNetSimConfig(cell), cell,
                            "netsim-faults: " + label, true);
        std::uint64_t crashes = 0;
        std::uint64_t recoveries = 0;
        std::uint64_t in_flight = 0;
        std::size_t partitioned = 0;
        std::size_t healed = 0;
        for (const netsim::NetSimReport& report : summary.reports) {
          crashes += report.crashes;
          recoveries += report.recoveries;
          in_flight += report.in_flight;
          if (std::isfinite(report.partition_s)) ++partitioned;
          if (std::isfinite(report.heal_s)) ++healed;
        }
        return {label,
                util::FormatFixed(crash_rate, 4),
                util::FormatFixed(outage, 0),
                std::to_string(crashes),
                std::to_string(recoveries),
                MetricCell(summary.delivery_ratio, 4),
                MetricCell(summary.delivered, 1),
                ObservedCell(partitioned, summary.replications),
                ObservedCell(healed, summary.replications),
                std::to_string(in_flight),
                "yes"};
      };
      const std::string suffix = " r=" + util::FormatFixed(crash_rate, 4) +
                                 " o=" + util::FormatFixed(outage, 0);

      RunPointRow(ctx, table, "faults:flat" + suffix, spec.seed,
                  "flat" + suffix,
                  [&](const ScenarioContext& cctx, const PointEnv&) {
                    return point_row(cctx, flat, "flat" + suffix);
                  });
      RunPointRow(ctx, table, "faults:clustered" + suffix, spec.seed,
                  "clustered" + suffix,
                  [&](const ScenarioContext& cctx, const PointEnv&) {
                    return point_row(cctx, clustered, "clustered" + suffix);
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

// ------------------------------------------------------------------------
// cluster-ablation

ResultSet RunClusterAblation(const ScenarioContext& ctx,
                             const ScenarioSpec& spec) {
  const netsim::NetSimConfig leach = BuildNetSimConfig(spec);
  netsim::NetSimConfig flat = leach;  // greedy multi-hop
  flat.cluster = netsim::ClusterConfig{};
  netsim::NetSimConfig still = leach;
  still.cluster.protocol = netsim::ClusterProtocolKind::kStatic;

  const netsim::ReplicationSummary flat_sum =
      RunCheckedBatch(ctx, flat, spec, "cluster-ablation flat", false);
  const netsim::ReplicationSummary still_sum =
      RunCheckedBatch(ctx, still, spec, "cluster-ablation static", false);
  const netsim::ReplicationSummary leach_sum =
      RunCheckedBatch(ctx, leach, spec, "cluster-ablation leach", false);

  ResultSet results(
      "cluster ablation: flat vs static heads vs LEACH-style rotation");
  results.SetMeta("nodes", std::to_string(flat.positions.size()));
  results.SetMeta("round", util::FormatFixed(leach.cluster.round_s, 0) + " s");
  results.SetMeta("head fraction",
                  util::FormatFixed(leach.cluster.head_fraction, 2));
  results.SetMeta("aggregation", std::to_string(leach.cluster.aggregation));
  results.SetMeta("replications", std::to_string(spec.replications));
  results.SetMeta("seed", std::to_string(spec.seed));

  ResultTable& table = results.AddTable(
      "summary", {"policy", "metric", "mean +- 95% CI", "observed in"});
  AddLifetimeRows(table, "flat", flat_sum);
  AddLifetimeRows(table, "static", still_sum);
  AddLifetimeRows(table, "leach", leach_sum);

  ResultTable& verdict = results.AddTable(
      "first-death-ranking", {"policy", "mean first death (s)"});
  verdict.AddRow({"flat", MetricCell(flat_sum.first_death_s, 1)});
  verdict.AddRow({"static", MetricCell(still_sum.first_death_s, 1)});
  verdict.AddRow({"leach", MetricCell(leach_sum.first_death_s, 1)});

  if (leach_sum.first_death_s.observed > 0 &&
      still_sum.first_death_s.observed > 0) {
    const double leach_gain =
        leach_sum.first_death_s.ci.mean / still_sum.first_death_s.ci.mean;
    results.AddNote(
        "rotation gain: LEACH first-node-death is " +
        util::FormatFixed(leach_gain, 2) +
        "x the static-cluster baseline (fixed heads drain first; rotating "
        "the head role spreads the aggregation + uplink cost)");
  } else {
    results.AddNote(
        "no node died before the horizon in at least one policy — raise "
        "--horizon or shrink --battery-mah to compare lifetimes");
  }
  return results;
}

}  // namespace wsn::scenario
