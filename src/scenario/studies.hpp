/// \file
/// The netsim study runners and the config helpers they share with the
/// generic spec interpreter.  Every runner reads one validated
/// ScenarioSpec (scenario/spec.hpp), filled either from a study's flags
/// or from a spec file through the same knob table, so a committed
/// preset is byte-identical to its registered twin.  The study table in
/// spec.cpp names the runner of each study; callers validate through
/// that table before calling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netsim/netsim.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

// ---------------------------------------------------------------- shared

/// Near-square grid deployment trimmed to exactly `n` nodes (the fault
/// study's and the generic interpreter's `nodes` topology).
std::vector<node::Position> NearSquareGrid(std::size_t n, double spacing);

/// The grid studies' config: a cols x rows grid (Msp430 CPU, 1024-bit
/// samples, 1% listen duty cycle, service rate 10 x the report rate)
/// reporting toward corner sinks, with small batteries so that every run
/// shows the full lifetime arc within a short horizon.
netsim::NetSimConfig BuildGridConfig(const ScenarioSpec& spec);

/// Extra sinks at the corners of a cols x rows deployment: `sinks` >= 2
/// adds the far corner, 3 and 4 the other two (one sink stays at the
/// origin corner).
void PlaceCornerSinks(netsim::NetSimConfig& cfg, std::size_t cols,
                      std::size_t rows, double spacing, std::size_t sinks);

/// Copy the spec's cluster knobs onto `cfg.cluster`.
void ApplyCluster(netsim::NetSimConfig& cfg, const ScenarioSpec& spec);

/// Event-storm MMPP traffic: mostly quiet at 20% of the nominal report
/// rate, with bursts at 10x (long-run mean close to the nominal rate).
void UseBurstyTraffic(netsim::NetSimConfig& cfg);

/// Two named node classes, "advanced" nodes carrying battery_factor
/// times the standard battery, on round(advanced_fraction * n) nodes:
/// those with the highest analytic relay load ("hotspot") or strided
/// through the index order ("spread").  The hotspot ranking reads
/// `homogeneous`, the analytic report of the deployment before classes,
/// and evaluates it when null.  Returns the advanced count.
std::size_t AssignNodeClasses(netsim::NetSimConfig& cfg,
                              const ScenarioSpec& spec,
                              const node::NetworkReport* homogeneous);

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
ResultSet RunLifetimeStudy(const ScenarioContext& ctx,
                           const ScenarioSpec& spec);

/// netsim-throughput: replications/second single-threaded vs fanned out
/// across the scenario executor.  The wall-clock columns make this the
/// one study whose output is NOT deterministic.
ResultSet RunThroughputStudy(const ScenarioContext& ctx,
                             const ScenarioSpec& spec);

/// netsim-clustered: LEACH-style (or static) clustered collection —
/// head rotation, in-cluster aggregation, multi-sink uplink.
ResultSet RunClusteredStudy(const ScenarioContext& ctx,
                            const ScenarioSpec& spec);

/// netsim-heterogeneous: a two-class (SEP-style) deployment cross-
/// validated against the analytic heterogeneous estimator.
ResultSet RunHeterogeneousStudy(const ScenarioContext& ctx,
                                const ScenarioSpec& spec);

/// netsim-faults: a crash-rate x outage-length chaos sweep, flat and
/// clustered, every replication differentially verified against its
/// full-recompute oracle twin and the packet-conservation invariant.
ResultSet RunFaultStudy(const ScenarioContext& ctx, const ScenarioSpec& spec);

/// cluster-ablation: one deployment under flat greedy multi-hop, static
/// clusters and LEACH-style rotation — lifetime as a function of
/// protocol policy.
ResultSet RunClusterAblation(const ScenarioContext& ctx,
                             const ScenarioSpec& spec);

}  // namespace wsn::scenario
