/// \file
/// The netsim study runners behind the registered scenarios, factored
/// out of the scenarios_*.cpp registration files so two front ends can
/// share one byte-exact implementation:
///
///   * the registry wrappers (`wsnctl run netsim-lifetime ...`) parse
///     their flag vocabulary into a params struct and call the runner;
///   * the declarative spec interpreter (`wsnctl run --file exp.json`,
///     scenario/spec.hpp) maps a validated JSON spec onto the same
///     struct and calls the same runner.
///
/// Because both paths execute identical code on identical params, a
/// committed preset file is byte-identical to its compiled-in twin —
/// the property tests/test_scenario.cpp pins.  Params structs carry the
/// registry defaults in their member initializers; callers validate
/// their own input surface (CLI flags or spec paths) before calling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "scenario/scenario.hpp"
#include "util/statistics.hpp"

namespace wsn::scenario {

// ---------------------------------------------------------------- shared

/// Near-square grid deployment trimmed to exactly `n` nodes (the fault
/// study's and the generic interpreter's `nodes` topology).
std::vector<node::Position> NearSquareGrid(std::size_t n, double spacing);

/// Grid topology + node hardware shared by the clustered studies: a
/// node grid reporting toward corner sinks with small batteries so
/// every run shows the full lifetime arc within a short horizon.
struct GridStudyParams {
  std::size_t cols = 6;       ///< grid columns (>= 1)
  std::size_t rows = 6;       ///< grid rows (>= 1)
  double spacing_m = 15.0;    ///< grid spacing (m)
  double hop_m = 40.0;        ///< max radio hop range (m)
  double rate_hz = 2.0;       ///< per-node report rate (1/s)
  double battery_mah = 0.05;  ///< per-node battery capacity
  double horizon_s = 2000.0;  ///< simulation horizon (s)
  std::size_t sinks = 1;      ///< sink count, 1..4 (deployment corners)
};

/// Build the NetSimConfig implied by `p` (Msp430 CPU, 1024-bit samples,
/// 1% listen duty cycle, corner sinks).
netsim::NetSimConfig BuildGridConfig(const GridStudyParams& p);

/// Cluster-protocol knobs shared by the clustered studies.
struct ClusterKnobs {
  netsim::ClusterProtocolKind protocol =
      netsim::ClusterProtocolKind::kLeach;  ///< leach or static
  double head_fraction = 0.1;   ///< desired cluster-head fraction (0, 1]
  std::size_t static_heads = 0; ///< static head count (0 = derive)
  double round_s = 25.0;        ///< cluster round length (s)
  std::size_t aggregation = 4;  ///< member samples per upstream packet
};

/// Apply `knobs` onto `cfg.cluster`.
void ApplyClusterKnobs(netsim::NetSimConfig& cfg, const ClusterKnobs& knobs);

/// Standard lifetime metric rows (first death, partition, delivery
/// ratio, samples delivered) labelled with `label`.
void AddLifetimeRows(ResultTable& table, const std::string& label,
                     const netsim::ReplicationSummary& summary);

/// Mean of a per-report extractor over all replications.
template <typename Fn>
double MeanOverReports(const netsim::ReplicationSummary& summary, Fn&& fn) {
  util::RunningStats stats;
  for (const netsim::NetSimReport& report : summary.reports) {
    stats.Add(fn(report));
  }
  return stats.Mean();
}

/// Field-for-field comparison of one replication against its oracle
/// twin (netsim::FirstReportDifference: every deterministic output,
/// per node included).  Any mismatch is a real divergence between the
/// incremental repair paths and their full-recompute oracle.  Throws
/// util::Error "`where` diverged from its oracle at replication N
/// (field)" on mismatch.
void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
                         const std::string& where, std::size_t rep);

/// Packet-conservation hard check: throws util::Error "`where` violated
/// packet conservation at replication N: ..." naming all four counters
/// unless report.Conserved().
void RequireConserved(const netsim::NetSimReport& report,
                      const std::string& where, std::size_t rep);

// --------------------------------------------------------------- studies

/// netsim-lifetime: deaths, re-routing and partition under bursty
/// (MMPP quiet/storm) traffic on a node grid with a corner sink.
struct LifetimeStudyParams {
  std::size_t cols = 10;
  std::size_t rows = 5;
  double spacing_m = 15.0;
  double hop_m = 40.0;
  double rate_hz = 2.0;
  double battery_mah = 0.05;
  double horizon_s = 4000.0;
  bool steady = false;  ///< steady Poisson instead of bursty MMPP
  std::size_t replications = 8;
  std::uint64_t seed = 2008;
};
ResultSet RunLifetimeStudy(const ScenarioContext& ctx,
                           const LifetimeStudyParams& p);

/// netsim-throughput: replications/second single-threaded vs fanned out
/// across the scenario executor.  The wall-clock columns make this the
/// one study whose output is NOT deterministic.
struct ThroughputStudyParams {
  std::size_t cols = 10;
  std::size_t rows = 10;
  double spacing_m = 25.0;
  double hop_m = 40.0;
  double rate_hz = 2.0;
  double horizon_s = 30.0;
  bool clustered = false;  ///< benchmark the LEACH data path instead
  std::size_t replications = 32;
  std::uint64_t seed = 2008;
};
ResultSet RunThroughputStudy(const ScenarioContext& ctx,
                             const ThroughputStudyParams& p);

/// netsim-clustered: LEACH-style (or static) clustered collection —
/// head rotation, in-cluster aggregation, multi-sink uplink.
struct ClusteredStudyParams {
  GridStudyParams grid;
  ClusterKnobs cluster;
  std::size_t replications = 8;
  std::uint64_t seed = 2008;
};
ResultSet RunClusteredStudy(const ScenarioContext& ctx,
                            const ClusteredStudyParams& p);

/// netsim-heterogeneous: a two-class (SEP-style) deployment cross-
/// validated against the analytic heterogeneous estimator.
struct HeterogeneousStudyParams {
  HeterogeneousStudyParams() { grid.rows = 4; }
  GridStudyParams grid;
  double advanced_fraction = 0.2;  ///< fraction of advanced nodes [0, 1]
  double battery_factor = 3.0;     ///< advanced battery multiplier (> 0)
  std::string placement = "hotspot";  ///< "hotspot" or "spread"
  std::size_t replications = 16;
  std::uint64_t seed = 2008;
};
ResultSet RunHeterogeneousStudy(const ScenarioContext& ctx,
                                const HeterogeneousStudyParams& p);

/// netsim-faults: a crash-rate x outage-length chaos sweep, flat and
/// clustered, every replication differentially verified against its
/// full-recompute oracle twin and the packet-conservation invariant.
struct FaultStudyParams {
  std::size_t nodes = 144;  ///< deployment size (>= 2), near-square grid
  double spacing_m = 15.0;
  double hop_m = 40.0;
  double rate_hz = 0.05;
  double horizon_s = 2000.0;
  std::vector<double> crash_rates{0.0002, 0.001};  ///< sweep axis (1/s)
  std::vector<double> outages{100.0, 400.0};       ///< sweep axis (s)
  std::size_t jam_windows = 2;
  double jam_radius_m = 45.0;
  double jam_duration_s = 0.0;  ///< 0 = horizon_s / 10
  double jam_p_loss = 0.5;
  std::size_t sink_outages = 1;
  double sink_outage_s = 0.0;  ///< 0 = horizon_s / 10
  std::size_t replications = 4;
  std::uint64_t seed = 2008;
};
ResultSet RunFaultStudy(const ScenarioContext& ctx,
                        const FaultStudyParams& p);

}  // namespace wsn::scenario
