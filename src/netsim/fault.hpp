/// \file
/// Deterministic fault injection for the packet simulator: transient node
/// crashes with recovery, regional link-degradation windows (jamming /
/// weather over a disc of the field) and sink outages.
///
/// Determinism contract: every random choice a fault schedule needs is
/// made *up front*, at FaultPlan::Generate time, from an RNG stream the
/// caller dedicates to faults — never interleaved with the simulation's
/// traffic/MAC draws.  The plan is therefore a plain value, replayable
/// bit-identically for a given (seed, replication) pair, and a simulator
/// run with faults disabled makes zero fault-related draws (the pinned
/// fault-free scenario outputs ride on that).
///
/// The three fault classes:
///   * node crashes (FaultEvent kCrash/kRecover): a Poisson process per
///     node; a crashed node goes silent (queue flushed, traffic stopped,
///     no baseline drain) and rejoins after an exponential outage with
///     whatever battery charge it had left — a crash is not a battery
///     death;
///   * jam windows (JamWindow): a time-boxed extra per-attempt loss
///     probability applied to every transmission whose sender sits
///     inside a disc of the field;
///   * sink outages (SinkOutage): a time-boxed window during which one
///     sink accepts nothing — deliveries to it fail like link losses and
///     burn retries.
///
/// Beyond the generated schedules, FaultConfig::scripted lets tests and
/// replay tooling pin exact crash/recover instants with no RNG at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {

/// What a scheduled fault event does to its target node.
enum class FaultEventKind : std::uint8_t {
  kCrash,    ///< the node goes silent (transient, not a battery death)
  kRecover,  ///< the node rejoins with its remaining battery
};

/// One scheduled node fault transition.
struct FaultEvent {
  double t = 0.0;                               ///< event instant (s)
  FaultEventKind kind = FaultEventKind::kCrash;  ///< crash or recover
  std::uint32_t node = 0;                       ///< target node index
};

/// A time-boxed regional link-degradation window: transmissions whose
/// sender lies inside the disc suffer `p_loss` *extra* per-attempt loss
/// (combined with the MAC's base p_loss as independent events).
struct JamWindow {
  node::Position center;   ///< disc center
  double radius_m = 0.0;   ///< disc radius (m)
  double start_s = 0.0;    ///< window open
  double end_s = 0.0;      ///< window close
  double p_loss = 0.0;     ///< extra per-attempt loss probability
};

/// A time-boxed outage of one sink: deliveries toward it fail like link
/// losses for the duration (senders burn retries, then drop).
struct SinkOutage {
  std::uint32_t sink = 0;  ///< index into the effective sink set
  double start_s = 0.0;    ///< window open
  double end_s = 0.0;      ///< window close
};

/// Fault-injection knobs for one simulation.  Everything defaults to
/// off; Enabled() is false for a default-constructed config and the
/// simulator then builds no fault machinery at all.
struct FaultConfig {
  /// Per-node transient crash rate (Poisson, 1/s); 0 disables crashes.
  double crash_rate_hz = 0.0;
  /// Mean of the exponential outage duration (s); must be positive when
  /// crash_rate_hz > 0.
  double mean_outage_s = 0.0;

  /// Number of jam windows to place uniformly over the run and field.
  std::size_t jam_windows = 0;
  double jam_radius_m = 0.0;    ///< disc radius of each window (m)
  double jam_duration_s = 0.0;  ///< length of each window (s)
  double jam_p_loss = 0.0;      ///< extra per-attempt loss inside, (0, 1]

  /// Number of sink-outage windows (round-robin over the sink set).
  std::size_t sink_outages = 0;
  double sink_outage_s = 0.0;  ///< length of each outage window (s)

  /// Explicit crash/recover events, merged (time-sorted) with the
  /// generated schedule.  Lets tests stage exact churn deterministically
  /// and replay tooling pin a recorded schedule; consumes no randomness.
  std::vector<FaultEvent> scripted;

  /// True when any fault class is active.
  bool Enabled() const noexcept {
    return crash_rate_hz > 0.0 || jam_windows > 0 || sink_outages > 0 ||
           !scripted.empty();
  }

  /// Throws util::InvalidArgument on negative rates/durations, a jam
  /// loss outside (0, 1], or inconsistent knob combinations.
  void Validate() const;
};

/// The fully materialized fault schedule of one replication: plain data,
/// bit-identical for a given (config, topology, seed) triple.
struct FaultPlan {
  /// Node crash/recover transitions, sorted by time (stable: ties keep
  /// generation order, so replays are exact).
  std::vector<FaultEvent> events;
  std::vector<JamWindow> jams;          ///< regional loss windows
  std::vector<SinkOutage> sink_outages; ///< sink-down windows

  /// Materialize a plan.  `rng` is taken by value: the caller hands the
  /// plan its own dedicated stream (the simulator derives one from the
  /// replication stream only when faults are enabled), so fault
  /// randomness never interleaves with traffic/MAC draws.  Scripted
  /// events are validated against `positions.size()` and merged in.
  static FaultPlan Generate(const FaultConfig& config,
                            const std::vector<node::Position>& positions,
                            std::size_t sink_count, double horizon_s,
                            util::Rng rng);
};

/// Runtime queries over a materialized plan.  The engine is stateless
/// beyond the plan itself: jam and sink windows are answered by scanning
/// the (small) window lists, so queries are pure functions of (plan,
/// position, time) — trivially replayable.
class FaultEngine {
 public:
  explicit FaultEngine(FaultPlan plan) : plan_(std::move(plan)) {}

  /// The node crash/recover schedule, time-sorted.
  const std::vector<FaultEvent>& Events() const noexcept {
    return plan_.events;
  }

  /// Extra per-attempt loss probability at position `p` and instant
  /// `now`: overlapping windows combine as independent loss events,
  /// 1 - prod(1 - p_k).  0 when no active window covers `p`.
  double JamExtraLoss(const node::Position& p, double now) const noexcept;

  /// True when sink `sink` is inside one of its outage windows at `now`.
  bool SinkDown(std::size_t sink, double now) const noexcept;

  /// Jam windows in the plan (for report counters).
  std::size_t JamWindows() const noexcept { return plan_.jams.size(); }

  /// Sink-outage windows in the plan (for report counters).
  std::size_t SinkOutages() const noexcept {
    return plan_.sink_outages.size();
  }

 private:
  FaultPlan plan_;
};

}  // namespace wsn::netsim
