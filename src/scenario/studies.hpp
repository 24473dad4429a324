/// \file
/// The netsim study runners and the checked batch runner they share with
/// the generic spec interpreter.  Every runner reads one validated
/// ScenarioSpec (scenario/spec.hpp), filled either from a study's flags
/// or from a spec file through the same knob table, so a committed
/// preset is byte-identical to its registered twin.  A runner takes its
/// config from BuildNetSimConfig, runs its batches through
/// RunCheckedBatch and renders its tables; the settings a study fixes
/// are its defaults in the study table in spec.cpp, which also names its
/// runner.  Callers validate through that table before calling.
#pragma once

#include <cstddef>
#include <string>

#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace wsn::scenario {

// ---------------------------------------------------------------- shared

/// One replication batch of `cfg` with `spec`'s replications and seed on
/// ctx's executor, observed through ctx's session (--metrics/--trace).
/// Every report is kept and checked for packet conservation; with
/// `oracle`, every replication also runs as its NetSimConfig::oracle twin
/// (observing nothing) and must match it field for field.  Throws
/// util::Error "`label` violated packet conservation at replication N:
/// ..." naming all four counters, or RequireEqualReports' error.
netsim::ReplicationSummary RunCheckedBatch(const ScenarioContext& ctx,
                                           netsim::NetSimConfig cfg,
                                           const ScenarioSpec& spec,
                                           const std::string& label,
                                           bool oracle);

/// Field-for-field comparison of one replication against its oracle
/// twin (netsim::FirstReportDifference: every deterministic output,
/// per node included).  Any mismatch is a real divergence between the
/// incremental repair paths and their full-recompute oracle.  Throws
/// util::Error "`where` diverged from its oracle at replication N
/// (field)" on mismatch.
void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
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
