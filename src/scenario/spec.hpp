/// \file
/// Declarative scenario specs: one validated description of a netsim
/// experiment — topology, node hardware, traffic, MAC, routing mode,
/// cluster knobs, fault injection, sweep axes, replication effort,
/// output columns and verification switches.
///
/// Every netsim knob is declared once, as a row of the knob table in
/// spec.cpp: its spec key ("topology.cols"), its flag ("--cols"), its
/// range rule and the ScenarioSpec field it fills.  Both front ends fill
/// one ScenarioSpec through that table — `wsnctl run netsim-lifetime
/// --cols=4` through StudySpecFromArgs, `wsnctl run --file exp.json`
/// through ParseScenarioSpec — and RunSpec hands it to the study's
/// runner (scenario/studies.hpp).  A study is a row of the study table:
/// the keys it accepts, its defaults (a setting the study fixes is the
/// default of a key it does not accept), its service floor and its
/// runner.  Its flags and its spec schema are that one key list, so a
/// committed preset file is byte-identical to its registered twin
/// (tests/test_scenario.cpp pins this for every file under presets/).
/// BuildNetSimConfig turns any spec into the netsim config every study,
/// the generic interpreter and the code-built deployments run.
///
/// The `study` key selects the keys and defaults:
///
///   * "lifetime" / "throughput" / "clustered" / "heterogeneous" /
///     "faults" re-express the registered scenarios — only the knobs
///     those scenarios expose as flags are accepted;
///   * "generic" opens the full knob surface (MAC loss/LPL, rerouting,
///     stop conditions, scalar faults, node classes, up to three sweep
///     axes, selectable output columns) plus the `verify` switches:
///     `oracle` runs every replication twice (production incremental
///     paths vs NetSimConfig::oracle) and hard-fails on any field
///     divergence; `analytic` cross-checks the simulated first death
///     against the closed-form estimator.
///
/// Packet conservation is asserted on every replication of every study.
///
/// Validation is strict and named: unknown keys, wrong types,
/// out-of-range values and conflicting knobs are rejected with the full
/// JSON path ("spec: unknown key 'colz' at $.topology (accepted: ...)")
/// or the flag ("flag --cols: must be >= 1 (got 0)") before anything
/// runs.  docs/scenarios.md is the schema reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/netsim.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

namespace wsn::scenario {

/// One sweep axis of a generic study: the spec path of a sweepable knob
/// and the values the sweep grid takes.
struct SweepAxis {
  std::string key;             ///< e.g. "node.rate" (see docs/scenarios.md)
  std::vector<double> values;  ///< >= 1 entries, each range-checked
};

/// A parsed, fully validated netsim experiment.  Member initializers are
/// the generic study's defaults; each named study starts from its own
/// (spec.cpp's study table).  Integer knobs are 64-bit so that one field
/// type serves counts and seeds alike.
struct ScenarioSpec {
  std::string study = "generic";  ///< a study-table name, e.g. "lifetime"

  // topology — a cols x rows grid, or a near-square grid of `nodes`.
  std::uint64_t cols = 6;   ///< grid columns
  std::uint64_t rows = 6;   ///< grid rows
  std::uint64_t nodes = 0;  ///< > 0: near-square grid of exactly n nodes
  double spacing_m = 15.0;  ///< grid spacing (m)
  double hop_m = 40.0;      ///< max radio hop range (m)
  std::uint64_t sinks = 1;  ///< 1..4, extra sinks at deployment corners

  // node hardware (Msp430 CPU, 1024-bit samples, 1% listen duty cycle)
  double rate_hz = 1.0;       ///< per-node report rate (1/s)
  double battery_mah = 0.05;  ///< per-node battery capacity

  std::string traffic = "steady";  ///< "steady" Poisson or "bursty" MMPP

  // mac
  double p_loss = 0.0;             ///< per-attempt loss probability
  double wakeup_interval_s = 0.0;  ///< LPL wakeup interval (0 = always on)
  std::uint64_t max_retries = 3;   ///< retransmissions per packet
  std::uint64_t max_queue = 1024;  ///< per-node queue capacity

  bool rerouting = true;  ///< flat routing repairs around dead nodes

  // cluster — `clustered` is the presence of the `cluster` section (the
  // throughput and generic studies); the clustered studies always use
  // the knobs.
  bool clustered = false;          ///< cluster the data path
  std::string protocol = "leach";  ///< "leach" or "static"
  double head_fraction = 0.1;      ///< desired cluster-head fraction
  std::uint64_t static_heads = 0;  ///< 0 = head_fraction * nodes
  double round_s = 25.0;           ///< cluster round length (s)
  std::uint64_t aggregation = 4;   ///< member samples per upstream packet

  // classes — two-class deployment when advanced_fraction > 0.
  double advanced_fraction = 0.0;     ///< fraction of advanced nodes
  double battery_factor = 1.0;        ///< advanced battery multiplier
  std::string placement = "hotspot";  ///< "hotspot" or "spread"

  // faults — scalars (0 disables each class); the faults study sweeps
  // `crash_rates` x `outages` instead of the two scalars.
  double crash_rate_hz = 0.0;       ///< per-node crash rate (1/s)
  double outage_s = 0.0;            ///< mean outage length (s)
  std::vector<double> crash_rates;  ///< crash-rate sweep axis (1/s)
  std::vector<double> outages;      ///< outage-length sweep axis (s)
  std::uint64_t jam_windows = 0;    ///< regional jam windows per run
  double jam_radius_m = 45.0;       ///< jam disc radius (m)
  double jam_duration_s = 0.0;      ///< 0 = horizon_s / 10
  double jam_p_loss = 0.5;          ///< extra loss inside a jam
  std::uint64_t sink_outages = 0;   ///< sink outage windows per run
  double sink_outage_s = 0.0;       ///< 0 = horizon_s / 10

  // run
  double horizon_s = 1000.0;  ///< simulation horizon (s)
  std::string stop_at = "horizon";  ///< "horizon", "first_death", "partition"
  std::uint64_t replications = 4;  ///< independent replications
  std::uint64_t seed = 2008;       ///< master RNG seed

  // sweep / output / verify (generic study)
  std::vector<SweepAxis> sweep;      ///< <= 3 axes, <= 64 cells total
  std::vector<std::string> columns;  ///< the cells table's columns
  bool verify_oracle = false;    ///< re-run each replication as oracle twin
  bool verify_analytic = false;  ///< check first death against the estimator
};

/// Parse and validate a spec document.  Throws util::InvalidArgument
/// with a path-qualified message ("spec: ..." for schema violations,
/// "json: ..." for malformed JSON).
ScenarioSpec ParseScenarioSpec(const std::string& json_text);

/// Read `path` and parse it; errors are prefixed with the file path.
ScenarioSpec LoadScenarioSpecFile(const std::string& path);

/// The flags of `study` (a study-table name such as "lifetime" or
/// "cluster-ablation"), in its key order, each default rendered from the
/// study's defaults.
std::vector<util::FlagSpec> StudyFlags(const std::string& study);

/// Fill `study`'s spec from command-line flags.  Throws
/// util::InvalidArgument naming the flag ("flag --cols: ...") for a value
/// its knob's rule rejects.
ScenarioSpec StudySpecFromArgs(const std::string& study,
                               const util::CliArgs& args);

/// Flag --name of a scenario outside the knob table, checked by the
/// table's rule for a positive knob: `fallback` when absent, otherwise a
/// finite number > 0, or util::InvalidArgument in the table's words
/// ("flag --rate: must be > 0 (got 0)").
double PositiveFlag(const util::CliArgs& args, const std::string& name,
                    double fallback);

/// Run a validated spec on its study's runner: the named studies'
/// tables, or the generic interpreter (sweep grid, column selection,
/// conservation / oracle / analytic verification).
ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec);

/// The netsim config of a spec, the one builder behind every netsim run
/// of the scenario layer: the paper's node (Msp430 CPU, 1024-bit
/// samples, 1% listen duty cycle, a service rate of 10 x max(report
/// rate, the study's service floor)) on the spec's grid with its corner
/// sinks, MAC, routing, stop rule, clusters, traffic, faults and node
/// classes.  A spec built in code keeps the default study, `generic`.
netsim::NetSimConfig BuildNetSimConfig(const ScenarioSpec& spec);

}  // namespace wsn::scenario
