/// \file
/// Independent-replication runner for the packet-level network simulator —
/// a thin client of util::ParallelExecutor.
///
/// Replication r draws its randomness from the master seed's r-th
/// jump-separated xoshiro stream (ParallelExecutor::MapSeeded), so results
/// are bit-identical for a given (seed, replication) pair no matter how
/// many threads run them or in what order they finish.  Aggregation
/// happens serially after the join, in replication order, so the summary
/// itself is deterministic too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "netsim/netsim.hpp"
#include "util/executor.hpp"
#include "util/statistics.hpp"

namespace wsn::netsim {

/// Effort / reproducibility knobs for one replication batch.
struct ReplicationConfig {
  std::size_t replications = 32;  ///< independent replications to run
  std::uint64_t seed = 2008;      ///< master seed the streams jump from
  bool keep_reports = false;      ///< retain every per-replication report
};

/// A metric observed in (a subset of) the replications.
struct MetricSummary {
  util::RunningStats stats;      ///< Welford accumulator over observations
  util::ConfidenceInterval ci;   ///< mean +- 95% half-width
  std::size_t observed = 0;      ///< replications where the event occurred
};

/// Aggregate outcome of a replication batch.
struct ReplicationSummary {
  MetricSummary first_death_s;    ///< over reps where a node died
  MetricSummary partition_s;      ///< over reps where a partition occurred
  MetricSummary delivery_ratio;   ///< over all reps
  MetricSummary delivered;        ///< samples delivered, over all reps
  std::size_t replications = 0;   ///< batch size actually run
  std::vector<NetSimReport> reports;  ///< filled when keep_reports

  /// Per-replication metrics merged in replication order (empty unless
  /// NetSimConfig::obs.metrics) — deterministic across thread counts.
  obs::MetricsSnapshot metrics;
  /// Per-replication traces concatenated in replication order (empty
  /// unless NetSimConfig::obs.trace.enabled); each line carries its
  /// replication index, so the concatenation is self-describing.
  std::string trace;
};

/// Run on an existing executor (reused across calls, e.g. by the
/// scenario engine and benchmarks).
ReplicationSummary RunReplications(const NetSimConfig& config,
                                   const core::CpuEnergyModel& cpu_model,
                                   const ReplicationConfig& rep,
                                   util::ParallelExecutor& executor);
}  // namespace wsn::netsim
