/// \file
/// Shared configuration helpers for the registered scenarios — the single
/// home of the paper's Table 2 parameters and the validated effort knobs
/// that used to be duplicated across nine bench_* mains.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/params.hpp"
#include "netsim/replication.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

namespace wsn::scenario {

/// Paper Table 2: 1000 s horizon, lambda = 1/s, mean service 0.1 s
/// (see DESIGN.md section 5 for the Table 2 reading).
core::CpuParams PaperParams();

/// The paper evaluates energy over the 1000 s simulated horizon.
inline constexpr double kEnergyHorizonSeconds = 1000.0;

/// Simulation effort knobs (--sim-time, --replications, --seed),
/// validated: replications >= 1 and a non-negative seed, rejected before
/// any unsigned cast.  Model-internal
/// replication threading is pinned to 1: scenario parallelism happens at
/// the sweep-grid level, through the scenario's ParallelExecutor.
core::EvalConfig EvalConfigFromArgs(const util::CliArgs& args);

/// Sweep resolution (--points), validated >= 2.
std::size_t SweepPointsFromArgs(const util::CliArgs& args);

/// FlagSpecs for the knobs above, shared by every sweep scenario.
std::vector<util::FlagSpec> CommonEvalFlags();

/// FlagSpec for --points.
util::FlagSpec PointsFlag();

/// "k/n reps" observation cell for replication summary tables.
std::string ObservedCell(std::size_t observed, std::size_t total);

/// "mean +- half_width" cell for a replication metric, or "n/a" when the
/// metric was observed in no replication (no death / no partition).
std::string MetricCell(const netsim::MetricSummary& metric, int precision);

/// Turn on the wsnctl observability session's switches (--metrics /
/// --trace) for one netsim run.  No-op when no session is active, so
/// the config keeps its zero-overhead defaults.
void ApplyObs(const ScenarioContext& ctx, netsim::NetSimConfig& config);

/// Contribute a finished replication batch's merged metrics snapshot and
/// concatenated trace to the session.  No-op when no session is active.
void ContributeObs(const ScenarioContext& ctx,
                   const netsim::ReplicationSummary& summary);

/// Stamp the machine fingerprint into `results`' meta: `cpu` (the CPU
/// model), `nproc` (CPUs this process may run on), `compiler` and
/// `build-type`.  Timing records carry it so that two of them can be
/// told apart by host and build (tools/bench_compare.py warns when they
/// differ).
void StampMachineFingerprint(ResultSet& results);

}  // namespace wsn::scenario
