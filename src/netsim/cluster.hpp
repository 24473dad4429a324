/// \file
/// Heterogeneous node classes and cluster-based data collection for the
/// packet-level network simulator.
///
/// Two orthogonal extensions of the flat, homogeneous simulator live
/// here:
///
///   * **Named hardware profiles** (NodeClass): per-node TX/RX/idle
///     radio powers, duty cycle and battery capacity, resolved by name
///     so deployments mix e.g. a few line-powered "advanced" nodes into
///     a field of coin-cell "standard" ones (SEP-style heterogeneity).
///
///   * **Clustered routing** (ClusteringProtocol): instead of greedy
///     multi-hop routing, member nodes transmit one hop to an elected
///     cluster head, which aggregates several member payloads into one
///     upstream packet toward the nearest sink.  The protocol interface
///     is pluggable; a LEACH-style rotating election and a static-head
///     baseline ship in-tree, and network lifetime becomes a function
///     of *policy*, not just energy bookkeeping — the property the
///     `cluster-ablation` scenario studies.
///
/// Protocols are deterministic: elections consume the replication's own
/// RNG stream in node-index order, so clustered runs keep the simulator's
/// byte-identical-per-(seed, replication) guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/radio.hpp"
#include "netsim/spatial.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::obs {
struct Stopwatch;
}  // namespace wsn::obs

namespace wsn::netsim {

/// A named hardware profile a node can be instantiated from.
///
/// The simulator's template node (NetSimConfig::network.node) supplies
/// everything a class does not override: CPU model and workload, sample
/// size, report fraction.  A class overrides the energy-defining parts —
/// radio powers, idle (listen/sleep) behaviour and battery.
struct NodeClass {
  std::string name;                 ///< registry key, e.g. "standard"
  double battery_mah = 2500.0;      ///< battery capacity (mAh), > 0
  double battery_volts = 3.0;       ///< battery voltage (V), > 0
  energy::RadioParameters radio;    ///< TX/RX/listen/sleep powers
  double listen_duty_cycle = 0.01;  ///< idle-listen fraction in [0, 1]

  /// Throws util::InvalidArgument on empty name, non-positive battery
  /// capacity/voltage, or a duty cycle outside [0, 1].
  void Validate() const;
};

/// Read-only view of the deployment a ClusteringProtocol sees at
/// election time.  All vectors are indexed by node and owned by the
/// simulator; the view is valid only for the duration of the call.
struct ClusterView {
  const std::vector<node::Position>* positions = nullptr;  ///< node sites
  const std::vector<node::Position>* sinks = nullptr;      ///< sink sites
  const std::vector<bool>* alive = nullptr;                ///< liveness mask
  /// Remaining battery fraction per node in [0, 1] (0 for dead nodes).
  /// May be stale until RefreshEnergy() runs: the simulator defers the
  /// per-node division to the (rare) protocols that actually read
  /// energies, so a plain repair never pays the O(N) refresh.
  const std::vector<double>* energy_fraction = nullptr;

  /// Brings `energy_fraction` current at the election instant.  Set by
  /// the simulator; protocols must call RefreshEnergy() before reading
  /// energies.  Unset (e.g. in unit tests) means the vector is already
  /// current.
  std::function<void()> refresh_energy;

  /// Invokes `refresh_energy` when set; no-op otherwise.
  void RefreshEnergy() const {
    if (refresh_energy) refresh_energy();
  }

  /// When set, AssignToNearestHead accumulates its wall-clock cost here
  /// (see docs/observability.md, metric netsim.cluster.assign_wall_s).
  /// Null keeps the calls untimed.  In-place repairs and the lazy
  /// re-attachment of ClusterAssignment::ResolveHead are never timed:
  /// the latter runs on the packet path, which reads no clock.
  obs::Stopwatch* assign_stopwatch = nullptr;

  /// When true, AssignToNearestHead always runs the all-pairs oracle
  /// (AssignToNearestHeadAllPairs) instead of the grid search; the
  /// simulator sets it from NetSimConfig::oracle.  Both produce identical
  /// assignments.
  bool all_pairs = false;

  /// Number of nodes in the deployment.
  std::size_t Size() const noexcept { return positions->size(); }
};

/// Spatial index over a set of cluster heads for nearest-head queries.
///
/// A SpatialGrid over the head positions sized for about one head per
/// cell, compacted in ascending head order: grid index order is head
/// index order, so the grid's lowest-index tie break is the all-pairs
/// lowest-head-index tie break.
class HeadIndex {
 public:
  /// Index `heads` (sorted, non-empty) at their sites in `positions`.
  HeadIndex(const std::vector<std::size_t>& heads,
            const std::vector<node::Position>& positions);

  /// Number of heads still indexed.
  std::size_t Size() const noexcept { return grid_.Size(); }

  /// Stop indexing `head`; a no-op when it is not indexed.
  void Erase(std::size_t head);

  /// Grid index of the indexed head nearest to `p` (ties to the lowest
  /// head index), or SpatialGrid::kNone when none is left.  Before any
  /// Erase, the grid index of a head is its slot in the head list the
  /// index was built from.
  std::size_t Nearest(const node::Position& p) const {
    return grid_.NearestWhere(
        p, [&](std::size_t j) { return node::Distance2(p, pos_[j]); });
  }

  /// Head at grid index `j`.
  std::size_t Head(std::size_t j) const { return heads_[j]; }

 private:
  std::vector<std::size_t> heads_;   ///< indexed heads at build, sorted
  std::vector<node::Position> pos_;  ///< their sites, parallel to heads_
  SpatialGrid grid_;
};

/// Result of one election: every node's cluster head.
struct ClusterAssignment {
  /// Sentinel: the node has no live cluster head (it is unclustered and
  /// cannot report until a later election repairs the cluster).
  static constexpr std::size_t kUnclustered = static_cast<std::size_t>(-1);

  /// head_of[i] is the cluster head recorded for node i: i itself when
  /// node i is a head, kUnclustered when no live head exists.  A full
  /// election or repair writes every row and resets dead nodes to
  /// kUnclustered.  RepairInPlace clears only the dead *head's* row, so
  /// a member's row may still name a node that is no longer a head;
  /// ResolveHead re-attaches such a row when it is read.  Dead members
  /// keep their last row too — readers must filter through the alive
  /// mask (the simulator does: no path reads a dead node's row).
  std::vector<std::size_t> head_of;

  /// Sorted indices of the elected heads (alive by construction).
  std::vector<std::size_t> heads;

  /// Spatial index over exactly `heads`, or empty.  AssignToNearestHeadGrid
  /// keeps the index it searched; EnsureIndex builds one on first use;
  /// RepairInPlace erases each dead head from it.  Code that edits
  /// `heads` any other way must reset it.
  std::optional<HeadIndex> index;

  /// True when node i is one of the elected heads.
  bool IsHead(std::size_t i) const noexcept {
    return i < head_of.size() && head_of[i] == i;
  }

  /// `index`, first built over `heads` (non-empty) at their sites in
  /// `positions` when it is missing or does not hold as many heads as
  /// `heads` lists.
  HeadIndex& EnsureIndex(const std::vector<node::Position>& positions);

  /// Node i's head, re-attaching a stale row first: when head_of[i]
  /// names a node that is no longer a head (RepairInPlace dropped it),
  /// the row is rewritten to the nearest current head, ties to the
  /// lowest index — the head an eager repair would hold now (see
  /// ClusteringProtocol::Repair).  Any other row is returned as it is.
  /// A stale row implies a surviving head: RepairInPlace declines the
  /// death of the last one.
  std::size_t ResolveHead(std::size_t i,
                          const std::vector<node::Position>& positions);
};

/// Strategy interface: how cluster heads are chosen and when they rotate.
///
/// One protocol instance serves one replication (constructed per
/// replication by NetSimConfig::ClusterConfig::factory, so it may keep
/// per-round state such as LEACH's eligibility window).  Elect runs at
/// every round boundary; Repair runs after a cluster-head death inside a
/// round.  Both must be deterministic functions of (view, rng state).
class ClusteringProtocol {
 public:
  virtual ~ClusteringProtocol() = default;

  /// Protocol name for reports ("leach", "static").
  virtual const char* Name() const noexcept = 0;

  /// Choose heads for round `round` (0-based) over the alive nodes in
  /// `view` and assign every other alive node to a head.  Draws from
  /// `rng` in node-index order only.
  virtual ClusterAssignment Elect(std::size_t round, const ClusterView& view,
                                  util::Rng& rng) = 0;

  /// React to a mid-round cluster-head death.  The default keeps the
  /// surviving heads of `current` and re-attaches every member to the
  /// nearest one; when no head survives it falls back to a fresh Elect
  /// for the same round.  No protocol seats a head mid-round — deaths
  /// and crashes remove heads and a recovered node rejoins as a member
  /// — so within a round the head set only shrinks, which is what makes
  /// ClusterAssignment::ResolveHead exact.  This full O(n) rebuild is
  /// the oracle RepairInPlace is pinned against, and the fallback when
  /// RepairInPlace declines.
  virtual ClusterAssignment Repair(const ClusterAssignment& current,
                                   std::size_t round, const ClusterView& view,
                                   util::Rng& rng);

  /// Repair `cluster` after the death of head `dead_head` *in place*:
  /// the dead head leaves `heads` and the head index (built here when
  /// the assignment arrived without one) and its own head_of row becomes
  /// kUnclustered.  Nothing else changes.  Its members' rows still name
  /// it and are re-attached lazily, by ClusterAssignment::ResolveHead,
  /// when next read; members of surviving heads keep their (still
  /// nearest) head.  O(heads) per death, for the erase from `heads`.
  /// `reattached` is unused and left untouched; it stays in the
  /// signature for overriding protocols.
  ///
  /// Returns false — leaving `cluster` untouched — when the fast path
  /// does not apply: `dead_head` is not a current head, or no other head
  /// survives (callers must fall back to Repair/Elect so the protocol
  /// can run its no-survivor policy).
  virtual bool RepairInPlace(ClusterAssignment& cluster, std::size_t dead_head,
                             const ClusterView& view,
                             std::vector<std::uint32_t>& reattached);
};

/// Attach every alive non-head node in `view` to the nearest alive head
/// in `heads` (Euclidean; ties break toward the lowest head index).
/// Nodes stay kUnclustered when `heads` is empty.  Shared by the in-tree
/// protocols and available to out-of-tree ones.  Runs the grid search,
/// or the all-pairs scan when `view.all_pairs` is set or there are at
/// most four heads; both return identical assignments.
ClusterAssignment AssignToNearestHead(const ClusterView& view,
                                      std::vector<std::size_t> heads);

/// The all-pairs oracle: every alive non-head node scans every head.
/// O(n * heads) — the reference the grid search is pinned against.
ClusterAssignment AssignToNearestHeadAllPairs(const ClusterView& view,
                                              std::vector<std::size_t> heads);

/// Grid-accelerated search: indexes the heads in a HeadIndex (kept as
/// the assignment's `index`) and answers each member with a
/// ring-expanding nearest query — O(1) expected per node for evenly
/// spread heads, O(n + heads) per election overall.
ClusterAssignment AssignToNearestHeadGrid(const ClusterView& view,
                                          std::vector<std::size_t> heads);

/// LEACH-style rotating election (Heinzelman et al.): each round, every
/// alive node that has not served as head within the last 1/p rounds
/// volunteers with probability T(r) = p / (1 - p * (r mod 1/p)).  When no
/// node volunteers, the alive node with the highest remaining energy
/// fraction is drafted, so a live network always has a head.
class LeachClustering final : public ClusteringProtocol {
 public:
  /// `head_fraction` is LEACH's p, the desired fraction of heads per
  /// round, in (0, 1].
  explicit LeachClustering(double head_fraction);

  const char* Name() const noexcept override { return "leach"; }
  ClusterAssignment Elect(std::size_t round, const ClusterView& view,
                          util::Rng& rng) override;

 private:
  double p_;
  std::size_t epoch_;  ///< rounds per rotation window, ceil(1/p)
  /// Round each node last served as head; kNever when it has not yet.
  std::vector<std::size_t> last_head_round_;
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
};

/// Static baseline: `head_count` heads are picked once (index-strided
/// across the deployment, a deterministic stand-in for planned
/// placement) and never rotate.  Members re-attach to surviving heads as
/// heads die; when the last head dies the network stays unclustered —
/// exactly the failure mode rotation exists to avoid.
class StaticClustering final : public ClusteringProtocol {
 public:
  /// `head_count` must be >= 1; it is clamped to the number of alive
  /// nodes at the first election.
  explicit StaticClustering(std::size_t head_count);

  const char* Name() const noexcept override { return "static"; }
  ClusterAssignment Elect(std::size_t round, const ClusterView& view,
                          util::Rng& rng) override;

  // Head deaths use the inherited Repair: it keeps the surviving heads
  // of `current` — which for this protocol are exactly the surviving
  // original heads — and when the last one dies, Elect (already chosen)
  // returns the empty assignment, so a dead static head is never
  // replaced.

 private:
  std::size_t head_count_;
  bool chosen_ = false;
  std::vector<std::size_t> heads_;  ///< the original, never-rotated heads
};

/// Which in-tree protocol ClusterConfig selects when no factory is set.
enum class ClusterProtocolKind {
  kNone,    ///< clustering disabled: flat greedy multi-hop routing
  kLeach,   ///< LeachClustering(head_fraction)
  kStatic,  ///< StaticClustering(static_heads or head_fraction * n)
};

/// Name of an in-tree protocol kind ("none", "leach", "static").
const char* ClusterProtocolKindName(ClusterProtocolKind kind) noexcept;

/// Parse "none" / "leach" / "static"; throws util::InvalidArgument
/// otherwise.
ClusterProtocolKind ParseClusterProtocolKind(const std::string& name);

/// Clustered-collection knobs on NetSimConfig.
struct ClusterConfig {
  /// In-tree protocol choice; ignored when `factory` is set.
  ClusterProtocolKind protocol = ClusterProtocolKind::kNone;

  /// LEACH p / the derived static head count fraction, in (0, 1].
  double head_fraction = 0.1;

  /// Static-baseline head count; 0 derives ceil(head_fraction * nodes).
  std::size_t static_heads = 0;

  /// Round length (s): heads rotate and partial aggregates flush at this
  /// period.  Must be > 0 when clustering is enabled.
  double round_s = 0.0;

  /// Member payloads folded into one upstream packet at a head (>= 1;
  /// 1 disables aggregation but keeps clustered routing).
  std::size_t aggregation = 4;

  /// Bits of an aggregated upstream packet; 0 = the template node's
  /// sample_bits (i.e. perfect compression to one sample).
  std::size_t aggregate_bits = 0;

  /// Custom protocol constructor, invoked once per replication (possibly
  /// from worker threads — pure construction only).  Overrides
  /// `protocol`.
  std::function<std::unique_ptr<ClusteringProtocol>()> factory;

  /// True when any protocol (in-tree kind or factory) is configured.
  bool Enabled() const noexcept {
    return protocol != ClusterProtocolKind::kNone || factory != nullptr;
  }

  /// Throws util::InvalidArgument on out-of-range knobs (see fields).
  void Validate() const;

  /// Instantiate the configured protocol for one replication of
  /// `node_count` nodes; null when clustering is disabled.
  std::unique_ptr<ClusteringProtocol> MakeProtocol(
      std::size_t node_count) const;
};

}  // namespace wsn::netsim
