/// \file
/// Declarative scenario specs: a validated JSON description of a netsim
/// experiment — topology, node hardware, traffic, MAC, routing mode,
/// cluster knobs, fault injection, sweep axes, replication effort,
/// output columns and verification switches — interpreted by the same
/// study runners the registered scenarios wrap (scenario/studies.hpp).
///
/// Two front ends, one implementation: `wsnctl run netsim-lifetime`
/// parses CLI flags into LifetimeStudyParams; `wsnctl run --file
/// exp.json` parses a spec into the same struct and calls the same
/// runner.  A committed preset file is therefore byte-identical to its
/// compiled-in twin (tests/test_scenario.cpp pins this for every file
/// under presets/).
///
/// The `study` key selects the interpretation:
///
///   * "lifetime" / "throughput" / "clustered" / "heterogeneous" /
///     "faults" re-express the registered scenarios — only the knobs
///     those scenarios expose are accepted;
///   * "generic" opens the full knob surface (MAC loss/LPL, rerouting,
///     stop conditions, scalar faults, node classes, up to three sweep
///     axes, selectable output columns) plus the `verify` switches:
///     `oracle` runs every replication twice (production incremental
///     paths vs NetSimConfig::oracle) and hard-fails on any field
///     divergence; `analytic` cross-checks the simulated first death
///     against the closed-form estimator.  Packet conservation is
///     asserted on every generic replication unconditionally.
///
/// Validation is strict and named: unknown keys, wrong types,
/// out-of-range values and conflicting knobs are rejected with the full
/// JSON path ("spec: unknown key 'colz' at $.topology (accepted: ...)")
/// before anything runs.  docs/scenarios.md is the schema reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netsim/netsim.hpp"
#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"

namespace wsn::scenario {

/// One sweep axis of a generic study: the spec path of a sweepable knob
/// and the values the sweep grid takes.
struct SweepAxis {
  std::string key;             ///< e.g. "node.rate" (see docs/scenarios.md)
  std::vector<double> values;  ///< >= 1 entries, each range-checked
};

/// The full knob surface of a `"study": "generic"` spec, with the
/// defaults the schema documents.  All knobs validated at parse time.
struct GenericSpec {
  // topology — either a cols x rows grid or a near-square `nodes` grid.
  std::size_t cols = 6;
  std::size_t rows = 6;
  std::size_t nodes = 0;  ///< > 0: near-square grid of exactly n nodes
  double spacing_m = 15.0;
  double hop_m = 40.0;
  std::size_t sinks = 1;  ///< 1..4, extra sinks at deployment corners

  // node hardware (Msp430 CPU, 1024-bit samples, 1% listen duty cycle)
  double rate_hz = 1.0;
  double battery_mah = 0.05;

  // traffic
  bool bursty = false;  ///< MMPP quiet/storm instead of steady Poisson

  // mac
  double p_loss = 0.0;
  double wakeup_interval_s = 0.0;
  std::size_t max_retries = 3;
  std::size_t max_queue = 1024;

  // routing (flat mode)
  bool rerouting = true;

  // cluster — enabled by the presence of the `cluster` section.
  bool clustered = false;
  ClusterKnobs cluster;

  // classes — two-class deployment when advanced_fraction > 0.
  double advanced_fraction = 0.0;
  double battery_factor = 1.0;
  std::string placement = "hotspot";  ///< "hotspot" or "spread"

  // faults (scalars; 0 disables each class)
  double crash_rate_hz = 0.0;
  double outage_s = 0.0;
  std::size_t jam_windows = 0;
  double jam_radius_m = 45.0;
  double jam_duration_s = 0.0;  ///< 0 = horizon_s / 10
  double jam_p_loss = 0.5;
  std::size_t sink_outages = 0;
  double sink_outage_s = 0.0;  ///< 0 = horizon_s / 10

  // run
  double horizon_s = 1000.0;
  std::string stop_at = "horizon";  ///< "horizon" | "first_death" | "partition"
  std::size_t replications = 4;
  std::uint64_t seed = 2008;

  // sweep / output / verify
  std::vector<SweepAxis> sweep;       ///< <= 3 axes, <= 64 cells total
  std::vector<std::string> columns;   ///< empty = the default column set
  bool verify_oracle = false;
  bool verify_analytic = false;
};

/// A parsed, fully validated scenario spec.  `study` names which params
/// struct is live; the others hold their defaults.
struct ScenarioSpec {
  std::string study;  ///< "lifetime" | "throughput" | "clustered" |
                      ///< "heterogeneous" | "faults" | "generic"
  LifetimeStudyParams lifetime;
  ThroughputStudyParams throughput;
  ClusteredStudyParams clustered;
  HeterogeneousStudyParams heterogeneous;
  FaultStudyParams faults;
  GenericSpec generic;
};

/// Parse and validate a spec document.  Throws util::InvalidArgument
/// with a path-qualified message ("spec: ..." for schema violations,
/// "json: ..." for malformed JSON).
ScenarioSpec ParseScenarioSpec(const std::string& json_text);

/// Read `path` and parse it; errors are prefixed with the file path.
ScenarioSpec LoadScenarioSpecFile(const std::string& path);

/// Run a validated spec: dispatches the named studies onto their shared
/// runners and interprets generic specs (sweep grid, column selection,
/// conservation / oracle / analytic verification).
ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec);

}  // namespace wsn::scenario
