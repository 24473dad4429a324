// Registered netsim scaling benchmark: end-to-end packet simulation at N
// up to 100k nodes, flat and clustered, with the death-triggered
// routing-update and election costs made visible.
//
// Each size runs the same deployment up to four ways:
//   * flat-incremental — spatial-grid neighbour index + incremental
//     repair (the production path);
//   * flat-oracle      — the same run with NetSimConfig::oracle set: a
//     full RoutingTable::Recompute after every death;
//   * clustered        — LEACH-style rotation on the same topology with
//     grid-accelerated head assignment and in-place repair (the
//     production path);
//   * clustered-oracle — the same run with all-pairs head assignment and
//     a full repair on every head death.
// The two oracle rows run only up to --oracle-max nodes (above it they
// stay in the table, marked "skipped").
//
// Deaths are staged deterministically: a strided subset of nodes gets a
// battery sized to empty at a chosen instant inside the horizon, so
// every size exercises a comparable number of routing repairs without
// waiting for the whole deployment to drain.  Each oracle twin shares
// its production run's RNG streams and must produce identical reports —
// the benchmark hard-fails on any difference, making every bench run an
// equivalence check too.
//
// `wsnctl run netsim-scale --format=json > BENCH_netsim_scale.json`
// produces the committed scaling record (see docs/performance.md);
// tools/bench_compare.py diffs two such files.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "netsim/netsim.hpp"
#include "obs/session.hpp"
#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {
namespace {

std::vector<std::size_t> ParseSizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? csv.size() - start
                                                     : comma - start);
    util::Require(!item.empty(), "flag --sizes: empty size entry");
    std::size_t parsed = 0;
    std::size_t consumed = 0;
    try {
      parsed = static_cast<std::size_t>(std::stoull(item, &consumed));
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != item.size()) {
      throw util::InvalidArgument("flag --sizes: '" + item +
                                  "' is not a node count");
    }
    util::Require(parsed >= 1 && parsed <= 200000,
                  "flag --sizes entries must be in 1..200000");
    sizes.push_back(parsed);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  util::Require(!sizes.empty(), "flag --sizes needs at least one size");
  for (std::size_t k = 1; k < sizes.size(); ++k) {
    util::Require(sizes[k] > sizes[k - 1],
                  "flag --sizes must be strictly increasing");
  }
  return sizes;
}

/// Near-square grid deployment trimmed to exactly `n` nodes.
std::vector<node::Position> ScaleTopology(std::size_t n, double spacing) {
  const std::size_t cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  std::vector<node::Position> positions = node::MakeGrid(cols, rows, spacing);
  positions.resize(n);
  return positions;
}

struct ScaleRun {
  netsim::NetSimReport report;
  double wall_s = 0.0;
  std::uint64_t deaths = 0;
  obs::MetricsSnapshot metrics;  ///< merged over reps (obs enabled only)
  std::string trace;             ///< concatenated (obs enabled only)
  /// Every replication's report, kept only for an oracle comparison.
  std::vector<netsim::NetSimReport> reports;
};

ScaleRun TimeRun(netsim::NetSimConfig cfg, double cpu_mw, std::uint64_t seed,
                 std::size_t replications, bool keep_reports) {
  const util::Rng master(seed);
  ScaleRun out;
  obs::Stopwatch wall;
  for (std::size_t r = 0; r < replications; ++r) {
    cfg.obs.trace.replication = static_cast<std::uint32_t>(r);
    netsim::NetworkSimulator sim(cfg, cpu_mw, master.MakeStream(r));
    obs::PhaseTimer run_timer(&wall);
    netsim::NetSimReport report = sim.Run();
    run_timer.Stop();
    // Deaths are summed across replications, like every other column.
    for (const netsim::NodeSimStats& node : report.nodes) {
      if (!node.alive) ++out.deaths;
    }
    out.metrics.MergeFrom(report.metrics);
    out.trace += report.trace;
    if (keep_reports) out.reports.push_back(report);
    if (r == 0) {
      out.report = std::move(report);
    } else {
      out.report.events += report.events;
      out.report.routing_repairs += report.routing_repairs;
      out.report.routing_repair_s += report.routing_repair_s;
      out.report.elections += report.elections;
      out.report.election_s += report.election_s;
      out.report.assign_s += report.assign_s;
      out.report.packets.generated += report.packets.generated;
      out.report.packets.delivered += report.packets.delivered;
    }
  }
  out.wall_s = wall.seconds;
  return out;
}

/// Throws unless `run` and its oracle twin agree in every deterministic
/// field of every replication (netsim::FirstReportDifference).
void RequireOracleAgrees(const ScaleRun& run, const ScaleRun& oracle,
                         const std::string& what, std::size_t n) {
  for (std::size_t r = 0; r < run.reports.size(); ++r) {
    const std::string field =
        netsim::FirstReportDifference(run.reports[r], oracle.reports[r]);
    if (!field.empty()) {
      throw util::Error("netsim-scale: " + what + " diverged at N=" +
                        std::to_string(n) + ", replication " +
                        std::to_string(r) + " (" + field + ")");
    }
  }
}

ResultSet RunNetsimScale(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  const std::vector<std::size_t> sizes =
      ParseSizes(args.GetString("sizes", "100,1000,5000,10000,100000"));
  const double spacing = args.GetDouble("spacing", 15.0);
  const double hop = args.GetDouble("hop", 40.0);
  const double rate = args.GetDouble("rate", 0.01);
  const double horizon = args.GetDouble("horizon", 2000.0);
  const double death_fraction = args.GetDouble("death-fraction", 0.08);
  util::Require(death_fraction > 0.0 && death_fraction <= 0.8,
                "flag --death-fraction must be in (0, 0.8]");
  const std::size_t oracle_max = args.GetCount("oracle-max", 5000);
  const std::size_t replications = args.GetCount("replications", 1, 1);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetCount("seed", 2008));
  const double round_s = args.GetDouble("round", horizon / 20.0);

  ResultSet results(
      "netsim at scale: spatial-grid routing repair and head assignment "
      "vs their oracles, flat and clustered");
  results.SetMeta("sizes",
                  args.GetString("sizes", "100,1000,5000,10000,100000"));
  results.SetMeta("spacing", util::FormatFixed(spacing, 0) + " m");
  results.SetMeta("hop", util::FormatFixed(hop, 0) + " m");
  results.SetMeta("rate", util::FormatFixed(rate, 3) + " /s per node");
  results.SetMeta("horizon", util::FormatFixed(horizon, 0) + " s");
  results.SetMeta("death-fraction", util::FormatFixed(death_fraction, 3));
  results.SetMeta("oracle-max", std::to_string(oracle_max));
  results.SetMeta("replications", std::to_string(replications));
  results.SetMeta("seed", std::to_string(seed));

  // "elections" / "assign (s)" are appended at the END of the header
  // list on purpose: bench_compare.py zips rows positionally against the
  // baseline's headers, so older baselines still align column for
  // column.
  ResultTable& table = results.AddTable(
      "scale", {"config", "nodes", "deaths", "route updates", "events",
                "wall (s)", "events/s", "repair (s)", "repair %",
                "speedup vs oracle", "elections", "assign (s)"});

  // With --metrics active the internal obs timings (routing repair,
  // election, head assignment) join the bench JSON as their own table,
  // keyed "N=<n> <mode> <metric>" so tools/bench_compare.py can regress
  // on them like any other row.  Gated on the flag: the default JSON
  // stays byte-compatible with committed baselines.  Rows are buffered
  // and the table added after the loop — AddTable invalidates earlier
  // table references (see result.hpp).
  const bool want_metrics = ctx.obs != nullptr && ctx.obs->MetricsEnabled();
  std::vector<std::vector<std::string>> metric_rows;

  const core::MarkovCpuModel model;
  for (const std::size_t n : sizes) {
    netsim::NetSimConfig cfg;
    cfg.network.node.cpu.arrival_rate = rate;
    cfg.network.node.cpu.service_rate = 10.0 * std::max(rate, 0.1);
    cfg.network.node.cpu_power = energy::Msp430();
    cfg.network.node.sample_bits = 1024;
    cfg.network.node.listen_duty_cycle = 0.01;
    cfg.network.sink = {0.0, 0.0};
    cfg.network.max_hop_m = hop;
    cfg.positions = ScaleTopology(n, spacing);
    cfg.horizon_s = horizon;

    const double cpu_mw = netsim::CpuAveragePowerMw(cfg, model);
    const node::NodeConfig& tpl = cfg.network.node;
    const double baseline_mw =
        cpu_mw + tpl.listen_duty_cycle * tpl.radio.listen_mw +
        (1.0 - tpl.listen_duty_cycle) * tpl.radio.sleep_mw;

    // Stage the deaths: `doomed` nodes, strided across the deployment
    // (skipping the sink-adjacent first decile so the network stays
    // partially connected), get batteries that the continuous baseline
    // alone empties at instants spread over [0.3, 0.9] * horizon.
    // Packet energy only moves those deaths earlier; everyone else gets
    // a battery that comfortably outlives the horizon.
    const std::size_t doomed = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(death_fraction *
                                               static_cast<double>(n))));
    cfg.battery_mah_override.assign(n, 50.0);
    const std::size_t low = n / 10;
    for (std::size_t k = 0; k < doomed; ++k) {
      const std::size_t span = n - low;
      const std::size_t idx = low + (k * span) / doomed;
      const double frac = doomed > 1
                              ? static_cast<double>(k) /
                                    static_cast<double>(doomed - 1)
                              : 0.0;
      const double death_t = horizon * (0.3 + 0.6 * frac);
      cfg.battery_mah_override[idx] =
          (baseline_mw / 1000.0) * death_t / (tpl.battery_volts * 3.6);
    }

    ApplyObs(ctx, cfg);

    // --- flat and clustered (LEACH) production runs, each against its
    // oracle twin up to --oracle-max -----------------------------------
    const bool oracles = n <= oracle_max;
    const ScaleRun flat = TimeRun(cfg, cpu_mw, seed, replications, oracles);
    ScaleRun flat_oracle;
    if (oracles) {
      netsim::NetSimConfig twin = cfg;
      twin.oracle = true;
      flat_oracle = TimeRun(twin, cpu_mw, seed, replications, true);
      RequireOracleAgrees(flat, flat_oracle, "incremental routing repair", n);
    }

    netsim::NetSimConfig ccfg = cfg;
    ccfg.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
    ccfg.cluster.head_fraction = 0.05;
    ccfg.cluster.round_s = round_s;
    ccfg.cluster.aggregation = 4;
    const ScaleRun clustered =
        TimeRun(ccfg, cpu_mw, seed, replications, oracles);
    ScaleRun clustered_oracle;
    if (oracles) {
      ccfg.oracle = true;
      clustered_oracle = TimeRun(ccfg, cpu_mw, seed, replications, true);
      RequireOracleAgrees(clustered, clustered_oracle,
                          "grid head assignment and in-place repair", n);
    }

    const auto add_row = [&](const std::string& mode, const ScaleRun& run,
                             const std::string& speedup) {
      const double events = static_cast<double>(run.report.events);
      table.AddRow(
          {"N=" + std::to_string(n) + " " + mode, std::to_string(n),
           std::to_string(run.deaths),
           std::to_string(run.report.routing_repairs),
           std::to_string(run.report.events),
           util::FormatFixed(run.wall_s, 3),
           util::FormatFixed(events / run.wall_s, 0),
           util::FormatFixed(run.report.routing_repair_s, 3),
           util::FormatFixed(
               100.0 * run.report.routing_repair_s / run.wall_s, 1),
           speedup, std::to_string(run.report.elections),
           util::FormatFixed(run.report.assign_s, 3)});
    };
    // An oracle gated out by --oracle-max keeps its row, explicitly
    // marked, so consumers (and bench_compare.py) see "skipped" instead
    // of a silently missing key.
    const auto add_skipped = [&](const std::string& mode) {
      table.AddRow({"N=" + std::to_string(n) + " " + mode,
                    std::to_string(n), "skipped", "skipped", "skipped",
                    "skipped", "skipped", "skipped", "skipped",
                    "skipped (N > oracle-max)", "skipped", "skipped"});
    };
    const auto add_obs = [&](const std::string& mode, const ScaleRun& run) {
      if (ctx.obs != nullptr) ctx.obs->Contribute(run.metrics, run.trace);
      if (!want_metrics) return;
      const std::string prefix = "N=" + std::to_string(n) + " " + mode + " ";
      for (const auto& [name, sw] : run.metrics.timings) {
        metric_rows.push_back({prefix + name,
                               util::FormatFixed(sw.seconds, 6)});
        metric_rows.push_back({prefix + name + ".calls",
                               std::to_string(sw.calls)});
      }
    };
    const auto add_pair = [&](const std::string& mode, const ScaleRun& run,
                              const std::string& oracle_mode,
                              const ScaleRun& oracle) {
      if (oracles) {
        add_row(oracle_mode, oracle, "1.00");
        add_row(mode, run, util::FormatFixed(oracle.wall_s / run.wall_s, 2));
        add_obs(oracle_mode, oracle);
      } else {
        add_skipped(oracle_mode);
        add_row(mode, run, "n/a (oracle skipped)");
      }
      add_obs(mode, run);
    };
    add_pair("flat-incremental", flat, "flat-oracle", flat_oracle);
    add_pair("clustered", clustered, "clustered-oracle", clustered_oracle);
  }

  if (want_metrics) {
    ResultTable& mtable = results.AddTable("metrics", {"key", "value"});
    for (std::vector<std::string>& row : metric_rows) {
      mtable.AddRow(std::move(row));
    }
  }

  results.AddNote(
      "flat-incremental repairs only the routes through a dead node over "
      "the spatial-grid neighbour index; flat-oracle recomputes every "
      "route after each death.  clustered assigns members to heads with "
      "the ring-expanding grid search and repairs a head death in place; "
      "clustered-oracle scans every head (O(N * heads)) and re-assigns "
      "every member on each head death.  Each oracle must produce "
      "identical reports — the run aborts on divergence; the speedup "
      "column compares each production row against its oracle (= 1.00).  "
      "Timings are wall-clock and machine-dependent; diff two JSON "
      "outputs with tools/bench_compare.py.");
  return results;
}

const ScenarioRegistrar reg_netsim_scale(MakeScenario(
    "netsim-scale",
    "scaling benchmark: grid-indexed incremental routing repair and "
    "grid-accelerated head assignment vs their oracles at N up to 100k, "
    "flat and clustered",
    "extension (engineering benchmark, BENCH_netsim_scale.json)",
    {
        {"sizes", "CSV", "100,1000,5000,10000,100000",
         "comma-separated node counts (strictly increasing)"},
        {"spacing", "M", "15", "grid spacing (m)"},
        {"hop", "M", "40", "max radio hop range (m)"},
        {"rate", "L", "0.01", "per-node report rate (1/s)"},
        {"horizon", "S", "2000", "simulation horizon (s)"},
        {"death-fraction", "F", "0.08",
         "fraction of nodes staged to die inside the horizon"},
        {"oracle-max", "N", "5000",
         "largest N that also runs the flat and clustered oracle twins"},
        {"replications", "R", "1", "replications per configuration (>= 1)"},
        {"seed", "N", "2008", "master RNG seed (non-negative)"},
        {"round", "S", "", "cluster round length (s); default horizon/20"},
    },
    RunNetsimScale));

}  // namespace
}  // namespace wsn::scenario
