/// \file
/// wsnctl-level observability session: translates the `--metrics` /
/// `--trace` command-line surface into the per-run ObsConfig, collects
/// what instrumented scenarios contribute (merged metric snapshots and
/// concatenated trace buffers), and writes the output files once the
/// scenario finishes.
///
/// A scenario participates by calling MakeConfig() into each
/// NetSimConfig it runs and Contribute()-ing each ReplicationSummary's
/// merged snapshot/trace; the netsim studies do both through
/// scenario::RunCheckedBatch (its ApplyObs/ContributeObs steps), the
/// timed benchmarks through ApplyObs/ContributeObs or Contribute()
/// directly.  Scenarios that run several configurations contribute
/// several times; snapshots merge under the usual per-kind rules.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsn::obs {

/// Parsed command-line surface (see wsnctl --help).
struct SessionOptions {
  std::string metrics_path;  ///< --metrics PATH ("" = off)
  std::string trace_path;    ///< --trace PATH ("" = off)
  TraceConfig trace;         ///< filters from --trace-nodes/-from/-until/-max
  /// --metrics-timings: include the wall-clock "timings" /
  /// "timing_histograms" sections in the metrics file.  Off by default so
  /// the file is byte-identical across runs, machines and thread counts.
  bool metrics_timings = false;
};

class Session {
 public:
  explicit Session(SessionOptions options);

  bool MetricsEnabled() const noexcept { return !options_.metrics_path.empty(); }
  bool TraceEnabled() const noexcept { return !options_.trace_path.empty(); }
  bool Enabled() const noexcept { return MetricsEnabled() || TraceEnabled(); }

  /// The ObsConfig a participating run should carry.
  ObsConfig MakeConfig() const;

  /// Fold one run's results into the session.
  void Contribute(const MetricsSnapshot& snapshot, const std::string& trace);

  const MetricsSnapshot& Merged() const noexcept { return merged_; }

  /// Metrics file content: `{"schema": "wsn-metrics-v1", <sections>}`.
  /// Wall-clock "timings"/"timing_histograms" sections appear only with
  /// --metrics-timings; without them the document is deterministic for a
  /// fixed (scenario, flags, seed) (docs/observability.md).
  std::string MetricsJson() const;

  /// Write the requested output files.  Throws util::Error on I/O
  /// failure.  No-op for outputs that were not requested.
  void WriteFiles() const;

 private:
  SessionOptions options_;
  MetricsSnapshot merged_;
  std::string trace_;
};

}  // namespace wsn::obs
