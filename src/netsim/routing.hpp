/// \file
/// Dynamic greedy geographic routing over the live subset of a deployment.
///
/// This is the event-driven counterpart of wsn::node::Network::NextHop: the
/// same greedy rule (forward to the in-range neighbour strictly closer to
/// the sink that minimizes remaining distance), but restricted to nodes
/// that are still alive, so the table can be updated whenever a battery
/// empties.  One deliberate difference from the static estimator: a greedy
/// dead end out of sink range maps to kNoRoute here instead of a
/// direct-to-sink long shot, because the packet simulator must know when
/// the network has partitioned.
///
/// Deployments may carry several sinks: every node then routes greedily
/// toward its *nearest* sink (distance-to-sink is the minimum over the
/// sink set), and delivery at any sink counts.
///
/// Construction buckets nodes into a SpatialGrid with cells of the hop
/// range and precomputes, once, each node's in-range neighbour list with
/// squared distances, so candidate scans touch the local density, not all
/// N nodes, and comparisons run in distance^2 with a single sqrt when a
/// hop is actually chosen.  A node death is then repaired incrementally
/// (RepairAfterDeath): only the nodes whose next hop was the dead node
/// re-choose, via a worklist.  Recompute, the full rebuild over the same
/// neighbour lists, is the oracle the incremental paths are pinned
/// against (NetSimConfig::oracle runs it after every death and recovery).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wsn/network.hpp"

namespace wsn::netsim {

/// Greedy next-hop table over the alive subset of a deployment, with
/// single- or multi-sink geometry fixed at construction.
class RoutingTable {
 public:
  /// NextHop() sentinel: a sink is reachable directly.
  static constexpr std::size_t kSink = static_cast<std::size_t>(-1);
  /// NextHop() sentinel: no live route exists (dead end or dead node).
  static constexpr std::size_t kNoRoute = static_cast<std::size_t>(-2);

  /// Each node's distance-to-sink is the minimum over `sinks`, which
  /// must be non-empty.
  RoutingTable(std::vector<node::Position> sinks, double max_hop_m,
               std::vector<node::Position> positions);

  /// Number of nodes routed by this table.
  std::size_t Size() const noexcept { return positions_.size(); }

  /// Rebuild every next hop considering only `alive[j]` nodes as relays,
  /// scanning each node's precomputed neighbour list.
  void Recompute(const std::vector<bool>& alive);

  /// Incremental repair after the death of node `dead` (already false in
  /// `alive`): clears the dead node's route and re-chooses the next hop
  /// of every node that routed through it, cascading via a worklist
  /// until routes stabilize.  Greedy choices depend only on geometry and
  /// liveness — never on another node's current hop — so the cascade
  /// settles after the direct predecessors; the worklist keeps that
  /// invariant explicit (and future-proof).  Starting from a consistent
  /// table this is equivalent to Recompute(alive).
  void RepairAfterDeath(std::size_t dead, const std::vector<bool>& alive);

  /// Incremental *insertion* after node `revived` rejoins (already true
  /// in `alive`) — the dual of RepairAfterDeath: re-chooses the revived
  /// node's own hop and re-offers it as a next hop to every alive node
  /// in its (symmetric) neighbour list.  A neighbour's greedy best can
  /// only improve, and only via the revived node itself, so unlike a
  /// death the insertion never cascades.  Starting from a table
  /// consistent with `alive` minus the revived node, this is equivalent
  /// to Recompute(alive) — the grid-full recompute stays the pinned
  /// oracle (tests/test_netsim_fault.cpp).
  void RepairAfterRecovery(std::size_t revived,
                           const std::vector<bool>& alive);

  /// kSink, kNoRoute, or the relay index for node i.
  std::size_t NextHop(std::size_t i) const { return next_[i]; }

  /// Distance (m) of node i's current hop; 0 when it has no route.
  double HopDistance(std::size_t i) const { return hop_distance_[i]; }

  /// True when node i's current next-hop chain ends at the sink without
  /// crossing a node that is dead in `alive`.  With rerouting disabled the
  /// table goes stale, so the chain is re-checked against `alive` here.
  bool Connected(std::size_t i, const std::vector<bool>& alive) const;

  /// Distance (m) from node i to its nearest sink.
  double DistanceToSink(std::size_t i) const { return to_sink_[i]; }

  /// Index (into Sinks()) of node i's nearest sink — the one its greedy
  /// route converges on; ties break to the lowest sink index.  Lets the
  /// fault engine answer "is my sink down?" per sender.
  std::size_t NearestSinkIndex(std::size_t i) const {
    return nearest_sink_[i];
  }

  /// Number of alive nodes whose next hop is kNoRoute, maintained
  /// incrementally across construction, recomputes and repairs.  For a
  /// table kept consistent with the liveness mask (an update after every
  /// death), "some alive node is disconnected" is *equivalent* to
  /// "UnroutedAlive() > 0": greedy chains through alive nodes strictly
  /// decrease distance-to-sink, so they either reach kSink or end at an
  /// alive node holding kNoRoute.  That turns the simulator's partition
  /// check into O(1).  Meaningless for stale tables (rerouting off) —
  /// those must chain-walk Connected() instead.
  std::size_t UnroutedAlive() const noexcept { return unrouted_alive_; }

  /// In-range neighbours of node i (precomputed, ascending index).
  std::size_t NeighborCount(std::size_t i) const {
    return nbr_start_[i + 1] - nbr_start_[i];
  }

  /// The sink set this table routes toward (size 1 in the single-sink
  /// case).
  const std::vector<node::Position>& Sinks() const noexcept { return sinks_; }

 private:
  /// Re-choose node i's next hop from its neighbour list under `alive`.
  void Choose(std::size_t i, const std::vector<bool>& alive);

  std::vector<node::Position> sinks_;
  double max_hop_m_;
  std::vector<node::Position> positions_;
  std::vector<double> to_sink_;
  std::vector<std::uint32_t> nearest_sink_;  ///< argmin index behind to_sink_
  std::vector<std::size_t> next_;
  std::vector<double> hop_distance_;
  /// CSR neighbour lists: node i's in-range neighbours are
  /// nbr_[nbr_start_[i] .. nbr_start_[i+1]), ascending index (the greedy
  /// tie-break scans in index order), with squared distances alongside.
  std::vector<std::uint32_t> nbr_start_;
  std::vector<std::uint32_t> nbr_;
  std::vector<double> nbr_d2_;
  std::vector<std::uint32_t> worklist_;  ///< RepairAfterDeath scratch
  std::size_t unrouted_alive_ = 0;       ///< see UnroutedAlive()
};

}  // namespace wsn::netsim
