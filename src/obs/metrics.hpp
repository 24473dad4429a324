/// \file
/// Metrics layer of the observability subsystem: named counters, gauges,
/// deterministic sums, wall-clock stopwatches and fixed-bucket histograms,
/// recorded per replication and merged deterministically at summary time.
///
/// Design constraints (see docs/observability.md):
///
///   * **No atomics, no locking.**  One MetricsRegistry belongs to one
///     replication (one NetworkSimulator), which is single-threaded by
///     construction.  Cross-replication aggregation happens after the
///     parallel join by merging plain MetricsSnapshot values in
///     replication order, so the merged registry is byte-identical no
///     matter how many threads ran the replications.
///
///   * **Zero cost when disabled.**  Hot-path instrumentation records
///     into pre-resolved handles (plain `std::uint64_t*`, Stopwatch*,
///     util::Histogram*) that are null when observability is off; the
///     only disabled-mode cost is one null check, and no registry entry
///     is ever created (pinned by tests/test_obs_metrics.cpp).
///
///   * **Deterministic vs wall-clock metrics are separated.**  Counters,
///     gauges, sums and (value-domain) histograms are functions of the
///     simulation alone and merge byte-identically across thread counts;
///     stopwatches and timing histograms measure host wall-clock time and
///     are machine-dependent.  Snapshot JSON keeps the two groups apart
///     so comparisons can pin the former and ignore the latter.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/histogram.hpp"

/// \namespace wsn::obs
/// Simulator-wide observability: metrics registry, scoped phase timers
/// and the structured packet-lifecycle trace sink.

namespace wsn::util {
class JsonWriter;
}  // namespace wsn::util

namespace wsn::obs {

/// Wall-clock accumulator: how many times a phase ran and how long it
/// took in total.  Plain data so instrumentation can keep always-on
/// stopwatches (e.g. routing-repair cost feeding NetSimReport) without a
/// registry.
struct Stopwatch {
  std::uint64_t calls = 0;  ///< completed PhaseTimer scopes
  double seconds = 0.0;     ///< accumulated wall-clock seconds

  void MergeFrom(const Stopwatch& other) noexcept {
    calls += other.calls;
    seconds += other.seconds;
  }
};

/// Scoped wall-clock probe: accumulates the lifetime of the scope into a
/// Stopwatch.  Constructed with a null stopwatch it is a complete no-op
/// (not even a clock read), which is how disabled observability stays
/// off the hot path.
class PhaseTimer {
 public:
  explicit PhaseTimer(Stopwatch* stopwatch) : stopwatch_(stopwatch) {
    if (stopwatch_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  explicit PhaseTimer(Stopwatch& stopwatch) : PhaseTimer(&stopwatch) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { Stop(); }

  /// Record the elapsed time now instead of at scope exit.  Idempotent;
  /// returns the recorded seconds (0 when disabled or already stopped).
  double Stop() noexcept {
    if (stopwatch_ == nullptr) return 0.0;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    ++stopwatch_->calls;
    stopwatch_->seconds += elapsed;
    stopwatch_ = nullptr;
    return elapsed;
  }

  /// Close the scope without recording anything: for an attempt that
  /// turned out not to count.
  void Discard() noexcept { stopwatch_ = nullptr; }

 private:
  Stopwatch* stopwatch_;
  std::chrono::steady_clock::time_point start_;
};

/// Plain-data image of one histogram for snapshots and JSON.
struct HistogramData {
  double low = 0.0;
  double high = 1.0;
  std::vector<std::uint64_t> counts;  ///< one entry per bin
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t nan = 0;
  std::uint64_t total = 0;
  double sum = 0.0;

  /// Binwise merge; shapes must match (throws InvalidArgument).
  void MergeFrom(const HistogramData& other);
};

/// Plain-data image of a whole registry: what a replication reports and
/// what merges across replications.  Maps are sorted by metric name, so
/// iteration (and the JSON rendering) is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;  ///< merge: sum
  std::map<std::string, double> gauges;           ///< merge: max (high-water)
  std::map<std::string, double> sums;             ///< merge: sum (sim-time)
  std::map<std::string, HistogramData> histograms;  ///< merge: binwise sum
  /// Wall-clock sections — machine-dependent, excluded from determinism
  /// guarantees (see file comment).
  std::map<std::string, Stopwatch> timings;            ///< merge: sum
  std::map<std::string, HistogramData> timing_histograms;  ///< binwise sum

  bool Empty() const noexcept;

  /// Merge `other` into this snapshot under the per-kind rules above.
  /// Deterministic given a deterministic merge order (callers merge in
  /// replication order).
  void MergeFrom(const MetricsSnapshot& other);

  /// Emit the snapshot's sections as members of the currently open JSON
  /// object: "counters", "gauges", "sums", "histograms" always, plus
  /// "timings" and "timing_histograms" when `include_timings`.
  void WriteJson(util::JsonWriter& writer, bool include_timings = true) const;

  /// Whole snapshot as one JSON document.  With include_timings = false
  /// the result is byte-identical across thread counts and machines for
  /// a fixed (scenario, seed) — the property the determinism tests pin.
  std::string ToJson(int indent = 2, bool include_timings = true) const;
};

/// One replication's live metrics store.  Accessors create-on-first-use
/// and return stable handles (std::map nodes never move), so hot paths
/// resolve a name once and then record through a raw pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonic counter (merge: sum).
  std::uint64_t* Counter(const std::string& name);
  /// High-water / level gauge (merge: max).
  double* Gauge(const std::string& name);
  /// Keep `name` at max(current, value) — the high-water idiom.
  void GaugeMax(const std::string& name, double value);
  /// Deterministic double accumulator, e.g. simulated seconds (merge: sum).
  double* Sum(const std::string& name);
  /// Wall-clock stopwatch (merge: sum; reported under "timings").
  Stopwatch* Timing(const std::string& name);
  /// Value-domain histogram with clamped edges (merge: binwise sum).
  /// Repeated calls with the same name must agree on the shape.
  util::Histogram* Hist(const std::string& name, double low, double high,
                        std::size_t bins);
  /// Wall-clock histogram (reported under "timing_histograms").
  util::Histogram* TimingHist(const std::string& name, double low, double high,
                              std::size_t bins);

  /// Plain-data copy for reports and merging.
  MetricsSnapshot Snapshot() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, double> sums_;
  std::map<std::string, Stopwatch> timings_;
  std::map<std::string, util::Histogram> histograms_;
  std::map<std::string, util::Histogram> timing_histograms_;
};

}  // namespace wsn::obs
