/// \file
/// Opt-in structured packet-lifecycle trace sink: every accepted event
/// becomes one JSONL line with simulated time, node, event kind and
/// optional packet identity / drop cause.  Filtering by node set and
/// time window keeps traces of large runs tractable, and a hard line cap
/// bounds memory; when the cap trips the sink flags truncation instead
/// of growing without bound.
///
/// Determinism: each replication owns one sink (no sharing across
/// threads) and stamps its replication index into every line; the
/// summary layer concatenates the per-replication buffers in replication
/// order, so the final trace file is byte-identical across `--threads`
/// (pinned by tests/test_obs_trace.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wsn::obs {

/// What to trace.  `enabled` off (the default) means no sink is ever
/// constructed and the instrumentation sites reduce to a null check.
struct TraceConfig {
  bool enabled = false;

  /// Only events at these node indices (sorted or not; empty = all).
  std::vector<std::size_t> nodes;

  /// Only events with from_s <= t < until_s.
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();

  /// Hard cap on recorded lines per replication; the sink drops further
  /// events and reports Truncated() once reached.
  std::uint64_t max_events = 1'000'000;

  /// Replication index stamped into every line ("rep").  Set by the
  /// replication runner, not by users.
  std::uint32_t replication = 0;

  /// Throws util::InvalidArgument on an empty time window or zero cap.
  void Validate() const;
};

/// One packet-lifecycle event.  `event` and `cause` must point at
/// string literals (the sink renders immediately, but keeping the
/// contract static avoids accidental dangling).
struct TraceEvent {
  double t = 0.0;            ///< simulated time
  const char* event = "";    ///< "gen", "enqueue", "tx", "rx", "deliver", "drop"
  std::size_t node = 0;      ///< node the event happened at
  std::uint64_t packet = 0;  ///< packet id (valid when has_packet)
  bool has_packet = false;
  std::size_t source = 0;  ///< originating node (valid when has_source)
  bool has_source = false;
  std::uint32_t payload = 0;  ///< application samples carried
  bool has_payload = false;
  const char* cause = nullptr;  ///< drop cause name, drop events only
};

/// Per-replication JSONL buffer.  Single-threaded by construction (one
/// sink per NetworkSimulator); see the file comment for how buffers
/// combine deterministically.
class TraceSink {
 public:
  explicit TraceSink(TraceConfig config);

  /// Is an event at (t, node) within the configured window and node
  /// set?  (Filter only — the line cap is Record's business.)
  bool Accepts(double t, std::size_t node) const noexcept;

  /// Append one line if the event passes the filters; once the line cap
  /// is reached further passing events are dropped and Truncated()
  /// turns true.
  void Record(const TraceEvent& event);

  std::uint64_t Events() const noexcept { return events_; }
  bool Truncated() const noexcept { return truncated_; }

  /// The JSONL buffer (one '\n'-terminated object per recorded event).
  const std::string& Text() const noexcept { return text_; }
  /// Move the buffer out (for the replication summary).
  std::string TakeText() noexcept { return std::move(text_); }

 private:
  TraceConfig config_;
  std::vector<std::size_t> nodes_;  ///< sorted copy of config_.nodes
  std::string text_;
  std::uint64_t events_ = 0;
  bool truncated_ = false;
};

/// The observability switches a simulation run consumes, carried inside
/// NetSimConfig.  Both default off, preserving the zero-overhead path.
struct ObsConfig {
  /// Collect a per-replication MetricsRegistry and attach its snapshot
  /// to the report.
  bool metrics = false;
  /// Packet-lifecycle tracing (enabled + filters).
  TraceConfig trace;

  bool Enabled() const noexcept { return metrics || trace.enabled; }
};

}  // namespace wsn::obs
