/// \file
/// Event-driven, packet-level multi-node WSN simulator.
///
/// This is the dynamic counterpart of the static estimator in
/// wsn::node::Network::Evaluate.  Where the estimator assumes every node
/// drains at a constant average power forever, this simulator generates
/// individual packets (steady Poisson by default, any des::Workload
/// otherwise), routes them hop-by-hop with greedy geographic routing,
/// pays per-packet TX/RX radio energy at each hop, drains a per-node
/// battery continuously at the CPU + duty-cycle listen baseline, and
/// reacts to battery depletion: dead relays trigger re-routing (when
/// enabled) and, eventually, network partition.
///
/// Energy accounting matches Network::Evaluate term by term (CPU average
/// power from the same core::CpuEnergyModel, identical radio per-packet
/// costs, identical listen/sleep baseline), so with re-routing disabled
/// and steady traffic the simulated time-to-first-death converges to the
/// analytic lifetime — the validation anchor for this subsystem.
///
/// Beyond the flat homogeneous baseline the simulator supports (see
/// netsim/cluster.hpp): named per-node hardware classes (heterogeneous
/// radios/batteries), several sinks, and cluster-based collection with
/// rotating or static head election and in-cluster aggregation.
///
/// One Simulator = one replication, single-threaded and bit-reproducible
/// for a given (seed, replication) pair; parallelism happens one level up
/// in netsim/replication.hpp, mirroring the DES kernel's design.
///
/// Hot-path notes: every event callback here captures at most (this, node
/// index), so all closures live inline in the kernel's recycled event-
/// record slab (no per-packet heap allocation — see des/action.hpp); the
/// per-node next hop is read once per transmission opportunity, not once
/// per shed packet; and per-node timeline buffers are reserved up front.
/// The per-node fields that event handlers read together (battery, drain
/// instant, baseline draw, radio coefficients, pending event ids, Poisson
/// rate, cluster uplink) sit in one 112-byte record per node
/// (NodeState): an event that wakes a cold node — an arrival, a hop's RX
/// drain, a death — misses on a line or two instead of one per field.
/// Steady Poisson arrivals are drawn inline from the record's rate, with
/// no per-node workload object; packet backlogs share one pooled slab
/// (PacketQueues).  Under low-power listening, transmissions completing
/// at the same receiver wake slot are batched into a single kernel event
/// that walks a wakeup list in schedule order (batch_mac_wakeups),
/// collapsing N same-timestamp DES events into one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "energy/battery.hpp"
#include "netsim/cluster.hpp"
#include "netsim/fault.hpp"
#include "netsim/mac.hpp"
#include "netsim/packet.hpp"
#include "netsim/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {

/// Full description of one packet-level simulation: topology, node
/// hardware (homogeneous template or named classes), traffic, MAC,
/// routing mode (flat greedy or clustered) and stop conditions.
struct NetSimConfig {
  /// Node template, sink position and hop range (same struct the static
  /// estimator consumes, so one topology drives both).
  node::NetworkConfig network;
  /// Node sites; one node per entry.
  std::vector<node::Position> positions;

  /// MAC timing / loss model shared by every node.
  MacConfig mac;

  double horizon_s = 1.0e7;  ///< hard simulation stop
  /// Recompute routes when a node dies (flat mode); in clustered mode
  /// this gates the repair election after a cluster-head death.
  bool rerouting = true;
  /// Run the reference path of every fast path, for oracle twins: a full
  /// RoutingTable::Recompute after each flat death and recovery instead
  /// of the incremental repairs; in clustered mode all-pairs head
  /// assignment, a full ClusteringProtocol::Repair on every head death
  /// instead of the in-place one, and a scan of every head to re-admit a
  /// revived node.  Reports are identical either way; only the cost
  /// differs.
  bool oracle = false;
  bool stop_at_first_death = false;  ///< end the run at the first death
  bool stop_at_partition = false;    ///< end the run when partitioned

  /// Sample every node's remaining energy at this period (0 disables).
  double timeline_interval_s = 0.0;

  /// Per-node battery capacity override (empty = the node's class or the
  /// template battery_mah).  Lets tests/benchmarks stage asymmetric
  /// deaths; takes precedence over node classes.
  std::vector<double> battery_mah_override;

  /// Named hardware profiles nodes can be drawn from.  Empty = every
  /// node uses the template (homogeneous deployment).
  std::vector<NodeClass> classes;
  /// Per-node class name into `classes`; empty = homogeneous.  When
  /// non-empty it must name a known class for every node.
  std::vector<std::string> node_class;

  /// Sink sites; empty = the single `network.sink`.  Nodes (and cluster
  /// heads) route toward their nearest sink.
  std::vector<node::Position> sinks;

  /// Cluster-based collection; disabled by default (flat greedy routing).
  ClusterConfig cluster;

  /// Fault injection (transient node crashes with recovery, jam windows,
  /// sink outages); disabled by default.  When disabled the simulator
  /// builds no fault machinery and makes zero extra RNG draws, so every
  /// fault-free output stays bit-identical to the pre-fault engine.
  FaultConfig faults;

  /// Batch transmissions that complete at the same LPL wake slot into a
  /// single kernel event walking a wakeup list (instead of N same-
  /// timestamp DES events).  Only ever active when mac.wakeup_interval_s
  /// > 0 — without LPL no two completions share a timestamp and every
  /// transmission schedules its own event as before.  Results are
  /// bit-identical with batching on or off (same completion timestamps,
  /// same FIFO order).
  bool batch_mac_wakeups = true;

  /// Observability switches (metrics registry, packet trace); both off
  /// by default, which keeps the hot path exactly as fast as before the
  /// obs layer existed (pinned by the disabled-mode tests).
  obs::ObsConfig obs;

  /// Per-node generator of *reported* packets.  Null means steady Poisson
  /// at arrival_rate * report_fraction, matching the analytic model.  The
  /// factory is invoked once per (node, replication), possibly from
  /// worker threads, so it must be thread-safe (pure construction is).
  std::function<std::unique_ptr<des::Workload>(std::size_t node)>
      traffic_factory;

  /// Throws util::InvalidArgument on inconsistent topology, unknown or
  /// invalid node classes, or out-of-range MAC/cluster knobs.
  void Validate() const;
};

/// The sink set a config implies: `sinks` when non-empty, else the
/// single `network.sink`.
std::vector<node::Position> EffectiveSinks(const NetSimConfig& config);

/// Per-node analytic node configurations implied by `config`: the
/// template with each node's class overrides (radio, duty cycle,
/// battery) and battery override applied.  This is the bridge to the
/// static estimator's heterogeneous Network::Evaluate overload for
/// cross-validation.
std::vector<node::NodeConfig> PerNodeConfigs(const NetSimConfig& config);

/// One sample of a node's remaining battery energy.
struct TimelinePoint {
  double time_s = 0.0;       ///< sample instant
  double remaining_j = 0.0;  ///< battery energy left at that instant
};

/// Per-node outcome of one replication.
struct NodeSimStats {
  std::uint64_t generated = 0;  ///< packets originated here
  std::uint64_t forwarded = 0;  ///< packets received for relay
  std::uint64_t delivered = 0;  ///< payloads sent from here that reached a sink
  std::uint64_t dropped = 0;    ///< payloads lost while held here
  /// Member payloads absorbed into this node's aggregation buffer while
  /// it served as a cluster head (0 in flat mode).
  std::uint64_t aggregated = 0;
  /// Elections this node won (round boundaries and mid-round repairs;
  /// 0 in flat mode).
  std::uint32_t head_elections = 0;
  double energy_used_j = 0.0;  ///< battery energy spent over the run
  double remaining_j = 0.0;    ///< battery energy left at the end
  bool alive = true;           ///< still alive at the end of the run
  /// Death instant; +infinity while alive at the end of the run.
  double death_s = std::numeric_limits<double>::infinity();
  /// Remaining-energy samples (timeline_interval_s > 0 only).
  std::vector<TimelinePoint> timeline;
};

/// Network-wide outcome of one replication.
struct NetSimReport {
  std::vector<NodeSimStats> nodes;  ///< per-node outcomes, by node index
  PacketCounters packets;           ///< network-wide packet counters
  /// First node-death instant; +infinity when nothing died.
  double first_death_s = std::numeric_limits<double>::infinity();
  /// Index of the first node to die; size_t(-1) when nothing died.
  std::size_t first_dead_node = static_cast<std::size_t>(-1);
  /// First instant an alive node lost its route; +infinity if never.
  double partition_s = std::numeric_limits<double>::infinity();
  /// First instant after `partition_s` at which every alive node had a
  /// route again — the partition healed (a revived node restored
  /// connectivity).  +infinity when no partition occurred or it never
  /// healed; only ever finite with fault injection enabled (nothing
  /// heals a fault-free run, and the detector is compiled out of the
  /// fault-free partition check to keep it O(1) after the latch).
  double heal_s = std::numeric_limits<double>::infinity();
  double end_s = 0.0;        ///< horizon or early-stop instant
  std::uint64_t events = 0;  ///< DES events fired
  /// Death-triggered route updates performed (flat repairs/recomputes
  /// and clustered rebuilds / repair elections).
  std::uint64_t routing_repairs = 0;
  /// Wall-clock seconds spent in those updates — the scaling work's
  /// direct observable (machine-dependent; not part of any pinned
  /// deterministic output).
  double routing_repair_s = 0.0;
  /// Cluster rounds started (boundary elections incl. the initial one;
  /// 0 in flat mode).
  std::uint64_t rounds = 0;
  /// Total protocol invocations: rounds plus mid-round repairs after
  /// cluster-head deaths (0 in flat mode).
  std::uint64_t elections = 0;
  /// Wall-clock seconds inside elections (protocol Elect/Repair + route
  /// rebuild; 0 in flat mode).  Machine-dependent, like
  /// routing_repair_s.
  double election_s = 0.0;
  /// Wall-clock seconds assigning members to heads: AssignToNearestHead
  /// in elections and full repairs (a sub-span of election_s).  The lazy
  /// re-attachment after in-place repairs is counted, not timed (metric
  /// netsim.cluster.reattachments).
  double assign_s = 0.0;

  /// Fault-injection outcome (all 0 / +infinity without faults).
  std::uint64_t crashes = 0;     ///< transient crashes applied
  std::uint64_t recoveries = 0;  ///< crash recoveries applied
  std::uint64_t jam_windows = 0;          ///< jam windows in the plan
  std::uint64_t sink_outage_windows = 0;  ///< sink outages in the plan

  /// Application samples still buffered somewhere at the end of the run
  /// (MAC queues plus cluster-head aggregation buffers) — the "in
  /// flight at horizon" term of the packet-conservation invariant.
  std::uint64_t in_flight = 0;

  /// Packet-conservation invariant: every generated sample is delivered,
  /// dropped for a counted cause, or still in flight at the end.  Any
  /// violation is a silent-loss bug; tests assert this on every run and
  /// the netsim-faults chaos harness hard-fails on it.
  bool Conserved() const noexcept {
    return packets.generated ==
           packets.delivered + packets.TotalDropped() + in_flight;
  }

  /// Metrics snapshot of this replication (empty unless
  /// NetSimConfig::obs.metrics; see docs/observability.md for the metric
  /// name catalogue).
  obs::MetricsSnapshot metrics;
  /// JSONL packet-lifecycle trace (empty unless
  /// NetSimConfig::obs.trace.enabled).
  std::string trace;

  /// Payloads delivered / packets generated (1.0 when none generated).
  double DeliveryRatio() const noexcept { return packets.DeliveryRatio(); }
};

/// Name of the first field in which two reports of one (seed,
/// replication) differ, e.g. "elections" or "nodes[17].remaining_j";
/// empty when they agree.  Compares every deterministic output: each
/// scalar (packet counters and drops by reason included) and every
/// NodeSimStats field, doubles by bit pattern.  The wall-clock fields
/// (routing_repair_s, election_s, assign_s), `metrics` and `trace` are
/// skipped: they measure the run, and oracle twins run with
/// observability off.
std::string FirstReportDifference(const NetSimReport& a,
                                  const NetSimReport& b);

/// Average CPU power (mW) of the template node under `model` — evaluated
/// once and shared by every node/replication so the (possibly expensive)
/// model runs outside the hot loop.
double CpuAveragePowerMw(const NetSimConfig& config,
                         const core::CpuEnergyModel& model);

/// One replication of the packet-level simulation.
class NetworkSimulator {
 public:
  /// `rng` is taken by value: the caller hands each replication its own
  /// jump-separated stream.
  NetworkSimulator(NetSimConfig config, double cpu_power_mw, util::Rng rng);

  /// Run the replication to its horizon (or early stop) and report.
  /// Callable once per instance.
  NetSimReport Run();

 private:
  void ScheduleNextArrival(std::size_t i);
  void OnArrival(std::size_t i);
  void Enqueue(std::size_t i, const Packet& pkt);
  void StartNext(std::size_t i);
  /// Schedule node i's FinishTx at `tx.finish_s`; LPL-slotted finishes
  /// join (or open) the wakeup batch for that timestamp when
  /// batch_mac_wakeups is on.
  void ScheduleTxFinish(std::size_t i, const DutyCycledMac::TxTiming& tx);
  /// Fire one wakeup batch: FinishTx for every listed node, in the order
  /// the finishes were scheduled (the kernel's FIFO order).
  void FireWakeups(std::size_t slot);
  void FinishTx(std::size_t i);
  void DrainDiscrete(std::size_t i, double joules);
  void RescheduleDeath(std::size_t i);
  void OnDeath(std::size_t i);
  /// Death-triggered routing/cluster update + partition check, shared by
  /// battery deaths and fault crashes (the repair is identical — only
  /// the death bookkeeping differs).
  void RepairAfterLoss(std::size_t i);
  void CheckPartition();

  // Fault-injection machinery (inert when config_.faults is disabled:
  // faults_ stays null and none of these run).
  void OnFaultEvent(std::size_t k);
  /// Transient crash: the node goes silent — queue flushed, traffic and
  /// death timer cancelled, alive mask cleared — but its battery is
  /// untouched (a crash is not a battery death; no baseline drains
  /// during the outage).
  void OnCrash(std::size_t i);
  /// Recovery: the node rejoins with its remaining charge; routes are
  /// re-offered (RoutingTable::RepairAfterRecovery, or a full Recompute
  /// under `oracle`), clusters re-admit it, traffic and the death timer
  /// restart, and a healed partition is detected.
  void OnRecover(std::size_t i);
  /// Clustered-mode re-admission of a revived node: it rejoins as a
  /// member of the nearest live head (a former head gets its next shot
  /// at the following round election), found through the assignment's
  /// head index, or by a scan of every head under `oracle`.
  void ReadmitRevived(std::size_t i);
  /// Per-attempt loss draw for sender i: the MAC's base p_loss combined
  /// (as independent events) with any active jam window covering the
  /// sender.  Without faults this is exactly mac_.AttemptLost.
  bool AttemptLost(std::size_t i);
  void DropPacket(std::size_t holder, DropReason reason,
                  std::uint32_t payloads = 1);
  void TimelineTick();
  void Stop();

  // Observability (all guarded by null checks; no-ops when disabled).
  void TracePacket(const char* event, std::size_t node, const Packet& pkt);
  void CollectMetrics(NetSimReport& report);

  // Clustered-mode machinery (no-ops in flat mode).
  bool Clustered() const noexcept { return protocol_ != nullptr; }
  /// Node i's next hop.  In clustered mode a row naming a node that is
  /// no longer a head is re-attached first (ReattachMember).
  std::size_t Receiver(std::size_t i);
  /// Re-attach member i, whose route row names a node that is no longer
  /// a head, to the nearest surviving head and rewrite its row.
  [[gnu::cold]] std::size_t ReattachMember(std::size_t i);
  double HopDistanceOf(std::size_t i) const;
  void ElectClusters(bool repair);
  /// Adds to head `head`'s head_elections the in-place repairs it won
  /// since its mark, and moves the mark to now.  Runs when the head dies
  /// or crashes, before an election replaces the assignment, and when
  /// the report is built — the points where a head stops winning.
  void CreditRepairWins(std::size_t head);
  /// Head-death repair that drops only the dead head: drives
  /// ClusteringProtocol::RepairInPlace on cluster_ and clears the dead
  /// head's route row; its members re-attach when they next transmit
  /// (Receiver).  Returns false — having changed nothing, the election
  /// stopwatch included — when the fast path does not apply (`oracle`
  /// set, no surviving head, or the protocol declines); the caller then
  /// falls back to ElectClusters(/*repair=*/true).
  bool TryInPlaceClusterRepair(std::size_t dead);
  /// Recomputes every node's uplink from cluster_.  With
  /// `prev_head_of` (a repair's pre-election assignment) only rows whose
  /// head changed are recomputed — an unchanged row still points at a
  /// live head at the same distance — and cluster_unrouted_ moves by
  /// transitions; null rebuilds every row from scratch.
  void RebuildClusterRoutes(
      const std::vector<std::size_t>* prev_head_of = nullptr);
  void RoundTick();
  void AbsorbAtHead(std::size_t head, const Packet& pkt);
  void FlushAggregate(std::size_t head);

  NetSimConfig config_;
  des::Simulator sim_;
  util::Rng rng_;
  RoutingTable routing_;
  DutyCycledMac mac_;

  /// The per-node fields the event handlers read together, one 112-byte
  /// record per node: what every drain reads (a hop's RX, a death) comes
  /// first, what an arrival or a transmission adds after it.  Aligning
  /// the records to cache lines measured no faster.  The O(N) sweeps
  /// (round-election drain, energy refresh, timeline ticks, the report)
  /// walk the records; they run once per round or tick.
  struct NodeState {
    energy::Battery battery;       ///< capacity + remaining (J)
    double last_update_s = 0.0;    ///< last baseline-drain instant
    double baseline_mw = 0.0;      ///< continuous CPU + listen/sleep draw
    double elec_nj_per_bit = 0.0;  ///< TX/RX radio electronics
    des::EventId death_event = 0;  ///< pending death event (0 = none)
    // The TX amplifier coefficients (energy::RadioParameters fields) are
    // read by the sender only.
    double amp_friis = 0.0;      ///< free-space, pJ/bit/m^2
    double amp_multipath = 0.0;  ///< two-ray, pJ/bit/m^4
    double crossover_m = 0.0;    ///< free-space/two-ray switch
    /// Pending traffic-arrival event (0 = none).  The id is recorded so a
    /// crash can cancel the node's arrival chain and a recovery can
    /// restart it without ever double-scheduling; in fault-free runs the
    /// bookkeeping is written but never read.
    des::EventId arrival_event = 0;
    /// Rate (1/s) of the inline steady Poisson arrivals; 0 = none, or
    /// arrivals come from traffic_.
    double arrival_rate = 0.0;
    /// Clustered mode: the receiver, a head index, kSink or kNoRoute.
    /// After an in-place repair a member's uplink may name its dead (or
    /// since revived, no longer head) former head until Receiver
    /// re-attaches it.
    std::size_t uplink = RoutingTable::kNoRoute;
    double uplink_m = 0.0;  ///< clustered mode: hop distance (m)
    /// repair_wins_ when this node's head_elections was last brought
    /// current (CreditRepairWins); meaningful while it is a head.
    std::uint64_t win_mark = 0;
  };

  /// Baseline drain of `node` up to `now`.
  static void Touch(NodeState& node, double now);

  std::vector<NodeState> nodes_;
  std::vector<bool> alive_;
  std::vector<std::uint8_t> busy_;  ///< radio TX in progress (0/1)
  PacketQueues queues_;             ///< pooled per-node packet FIFOs
  std::vector<std::uint32_t> agg_payloads_;  ///< head aggregation buffers
  /// Per-node arrival generators: filled only for a traffic_factory, or
  /// under `oracle`, whose steady Poisson draws go through
  /// des::MakePoissonWorkload — the reference the inline draw is pinned
  /// against.  Empty otherwise.
  std::vector<std::unique_ptr<des::Workload>> traffic_;
  std::vector<NodeSimStats> stats_;

  // Fault-injection state (vectors stay empty-initialized-cheap; only
  // written by the crash/recover paths).
  std::unique_ptr<FaultEngine> faults_;  ///< null when faults disabled
  std::vector<std::uint8_t> down_;       ///< 1 while fault-crashed
  /// 1 when a crash interrupted an in-flight TX: the stale FinishTx
  /// event still fires and must be swallowed (it completed no
  /// transmission) instead of popping a packet the crash already
  /// flushed.
  std::vector<std::uint8_t> tx_void_;
  std::vector<double> down_since_;  ///< crash instant (outage histogram)
  std::uint64_t crashes_ = 0;       ///< crashes applied
  std::uint64_t recoveries_ = 0;    ///< recoveries applied
  double heal_s_ = std::numeric_limits<double>::infinity();

  // Batched LPL wakeups: lists of nodes whose TX completes at the same
  // wake-slot timestamp, one kernel event per distinct timestamp.  List
  // slots recycle through a free list; `firing_` is the walk scratch
  // (swapped in so nested ScheduleTxFinish calls can reuse the slot
  // safely — the kernel fires one event at a time, so no reentrancy).
  struct WakeupBatch {
    double t = 0.0;                   ///< batch timestamp (map key echo)
    std::vector<std::uint32_t> nodes;  ///< waiters, in schedule order
  };
  std::vector<WakeupBatch> wakeup_lists_;
  std::vector<std::uint32_t> wakeup_free_;
  std::unordered_map<double, std::uint32_t> wakeup_at_;  ///< t -> list slot
  std::vector<std::uint32_t> firing_;
  std::uint64_t wakeup_batches_ = 0;   ///< batch events fired
  std::uint64_t wakeups_batched_ = 0;  ///< FinishTx calls delivered batched

  /// Kernel events fired, by kind: one plain increment per handler,
  /// emitted as des.events.fired.<kind>.  The kinds sum to the kernel's
  /// fired count.
  struct FiredEvents {
    std::uint64_t arrival = 0;
    std::uint64_t tx_finish = 0;
    std::uint64_t wakeup_batch = 0;
    std::uint64_t death = 0;
    std::uint64_t fault = 0;
    std::uint64_t round = 0;
    std::uint64_t timeline = 0;
  };
  FiredEvents fired_;

  PacketCounters counters_;
  std::uint64_t next_packet_id_ = 0;
  double first_death_s_ = std::numeric_limits<double>::infinity();
  std::size_t first_dead_node_ = static_cast<std::size_t>(-1);
  double partition_s_ = std::numeric_limits<double>::infinity();
  bool stopped_ = false;
  double stop_time_s_ = 0.0;
  bool ran_ = false;

  // Always-on wall-clock probes (clock reads only at rare events —
  // deaths and elections — never per packet).  repair_sw_ feeds the
  // report's routing_repairs / routing_repair_s fields, so those survive
  // with observability off; the registry snapshots them additionally.
  obs::Stopwatch repair_sw_;    ///< death-triggered route updates
  obs::Stopwatch election_sw_;  ///< protocol Elect/Repair + route rebuild
  obs::Stopwatch assign_sw_;    ///< head assignment (via ClusterView)

  // Opt-in observability state (null when disabled).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceSink> trace_;
  util::Histogram* repair_hist_ = nullptr;  ///< owned by *metrics_
  /// Observed outage durations (recover - crash); owned by *metrics_,
  /// only created when both metrics and faults are enabled.
  util::Histogram* outage_hist_ = nullptr;

  // Clustered-mode state.
  std::unique_ptr<ClusteringProtocol> protocol_;  ///< null in flat mode
  ClusterAssignment cluster_;
  /// Alive nodes with uplink == kNoRoute, which alone answers the
  /// partition check in O(1) — the clustered analogue of
  /// RoutingTable::UnroutedAlive().  It stays exact while stale rows
  /// wait for re-attachment: a stale row implies a surviving head, so it
  /// is routed.
  std::size_t cluster_unrouted_ = 0;
  std::vector<double> energy_fraction_;    ///< election-time scratch
  std::size_t round_ = 0;                  ///< current round index
  std::size_t aggregate_bits_ = 0;         ///< resolved upstream bits
  std::uint64_t rounds_ = 0;
  std::uint64_t elections_ = 0;
  /// In-place repairs so far.  Each one is a win for every head then
  /// seated; a head collects its wins through CreditRepairWins instead of
  /// every repair walking the head list.
  std::uint64_t repair_wins_ = 0;
  std::uint64_t reattachments_ = 0;  ///< lazy member re-attachments
};

}  // namespace wsn::netsim
