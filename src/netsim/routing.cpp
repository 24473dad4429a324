#include "netsim/routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "netsim/spatial.hpp"
#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

RoutingTable::RoutingTable(std::vector<node::Position> sinks, double max_hop_m,
                           std::vector<node::Position> positions)
    : sinks_(std::move(sinks)),
      max_hop_m_(max_hop_m),
      positions_(std::move(positions)) {
  Require(!positions_.empty(), "routing table needs at least one node");
  Require(max_hop_m_ > 0.0, "hop range must be positive");
  Require(!sinks_.empty(), "routing table needs at least one sink");
  const std::size_t n = positions_.size();
  const double hop2 = max_hop_m_ * max_hop_m_;

  // Nearest-sink distances: compare in distance^2, one sqrt per node.
  // The argmin sink index rides along (strict < keeps the lowest index
  // among equals) for per-sender sink-outage queries.
  to_sink_.resize(n);
  nearest_sink_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double best2 = std::numeric_limits<double>::infinity();
    std::uint32_t best_sink = 0;
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      const double d2 = node::Distance2(positions_[i], sinks_[s]);
      if (d2 < best2) {
        best2 = d2;
        best_sink = static_cast<std::uint32_t>(s);
      }
    }
    to_sink_[i] = std::sqrt(best2);
    nearest_sink_[i] = best_sink;
  }

  // Per-node in-range neighbour lists, gathered from the 3x3 grid block
  // and sorted ascending — the greedy tie-break (lowest index wins on
  // equal remaining distance) scans each list in index order, as
  // Network::NextHop scans every node.
  const SpatialGrid grid(positions_, max_hop_m_);
  std::vector<std::pair<std::uint32_t, double>> candidates;
  nbr_start_.assign(n + 1, 0);
  nbr_.clear();
  nbr_d2_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    candidates.clear();
    grid.ForEachCandidate(positions_[i], [&](std::size_t j) {
      if (j == i) return;
      const double d2 = node::Distance2(positions_[i], positions_[j]);
      if (d2 <= hop2) {
        candidates.emplace_back(static_cast<std::uint32_t>(j), d2);
      }
    });
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [j, d2] : candidates) {
      nbr_.push_back(j);
      nbr_d2_.push_back(d2);
    }
    nbr_start_[i + 1] = static_cast<std::uint32_t>(nbr_.size());
  }

  // All-alive fast path: route every node directly off its neighbour
  // list — no throwaway all-true liveness mask, no per-node mask reads.
  next_.assign(n, kNoRoute);
  hop_distance_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (to_sink_[i] <= max_hop_m_) {
      next_[i] = kSink;
      hop_distance_[i] = to_sink_[i];
      continue;
    }
    std::size_t best = kNoRoute;
    double best_remaining = to_sink_[i];
    double best_d2 = 0.0;
    for (std::uint32_t k = nbr_start_[i]; k < nbr_start_[i + 1]; ++k) {
      const std::uint32_t j = nbr_[k];
      if (to_sink_[j] < best_remaining) {
        best_remaining = to_sink_[j];
        best = j;
        best_d2 = nbr_d2_[k];
      }
    }
    next_[i] = best;
    hop_distance_[i] = (best == kNoRoute) ? 0.0 : std::sqrt(best_d2);
    if (best == kNoRoute) ++unrouted_alive_;
  }
}

void RoutingTable::Choose(std::size_t i, const std::vector<bool>& alive) {
  if (to_sink_[i] <= max_hop_m_) {
    next_[i] = kSink;
    hop_distance_[i] = to_sink_[i];
    return;
  }
  // Strictly-closer greedy choice; ties broken by lowest index via the
  // strict comparison in (sorted) scan order, matching Network::NextHop.
  std::size_t best = kNoRoute;
  double best_remaining = to_sink_[i];
  double best_d2 = 0.0;
  for (std::uint32_t k = nbr_start_[i]; k < nbr_start_[i + 1]; ++k) {
    const std::uint32_t j = nbr_[k];
    if (!alive[j]) continue;
    if (to_sink_[j] < best_remaining) {
      best_remaining = to_sink_[j];
      best = j;
      best_d2 = nbr_d2_[k];
    }
  }
  next_[i] = best;
  hop_distance_[i] = (best == kNoRoute) ? 0.0 : std::sqrt(best_d2);
}

void RoutingTable::Recompute(const std::vector<bool>& alive) {
  const std::size_t n = positions_.size();
  Require(alive.size() == n, "alive mask size mismatch");
  unrouted_alive_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) {
      next_[i] = kNoRoute;
      hop_distance_[i] = 0.0;
      continue;
    }
    Choose(i, alive);
    if (next_[i] == kNoRoute) ++unrouted_alive_;
  }
}

void RoutingTable::RepairAfterDeath(std::size_t dead,
                                    const std::vector<bool>& alive) {
  const std::size_t n = positions_.size();
  Require(alive.size() == n, "alive mask size mismatch");
  Require(dead < n, "dead node index out of range");
  Require(!alive[dead], "RepairAfterDeath: node is still alive");

  worklist_.clear();
  worklist_.push_back(static_cast<std::uint32_t>(dead));
  // The dead node leaves the alive set: it stops counting toward
  // UnroutedAlive whatever its route was.
  if (next_[dead] == kNoRoute) --unrouted_alive_;
  next_[dead] = kNoRoute;
  hop_distance_[dead] = 0.0;
  while (!worklist_.empty()) {
    const std::uint32_t lost = worklist_.back();
    worklist_.pop_back();
    // A next hop is always within range, so every node routing through
    // `lost` sits in its (symmetric) neighbour list — no global scan.
    for (std::uint32_t k = nbr_start_[lost]; k < nbr_start_[lost + 1]; ++k) {
      const std::uint32_t i = nbr_[k];
      if (!alive[i] || next_[i] != lost) continue;
      Choose(i, alive);
      // Re-chosen nodes held a real route (next_ == lost) before, so
      // only the no-route outcome moves the UnroutedAlive counter.
      if (next_[i] == kNoRoute) ++unrouted_alive_;
      // Greedy hops depend only on geometry and liveness, never on
      // another node's chosen hop, so i's new route cannot invalidate
      // anyone else's: the worklist drains after the direct
      // predecessors of each dead node.
    }
  }
}

void RoutingTable::RepairAfterRecovery(std::size_t revived,
                                       const std::vector<bool>& alive) {
  const std::size_t n = positions_.size();
  Require(alive.size() == n, "alive mask size mismatch");
  Require(revived < n, "revived node index out of range");
  Require(alive[revived], "RepairAfterRecovery: node is not alive");

  // The revived node re-enters the alive set with a fresh greedy choice.
  Choose(revived, alive);
  if (next_[revived] == kNoRoute) ++unrouted_alive_;

  // Re-offer it to its neighbours.  A full Recompute would switch
  // neighbour j to the revived node exactly when it is strictly closer
  // to the sink than j's current best, or equally close with a lower
  // index (Choose's ascending-index scan keeps the first of equals);
  // no other node's candidate set changed, so nothing else can move.
  const double cand = to_sink_[revived];
  for (std::uint32_t k = nbr_start_[revived]; k < nbr_start_[revived + 1];
       ++k) {
    const std::uint32_t j = nbr_[k];
    if (!alive[j] || next_[j] == kSink) continue;
    bool better;
    if (next_[j] == kNoRoute) {
      // Choose starts from j's own distance: a relay must strictly beat
      // it.
      better = cand < to_sink_[j];
    } else {
      const double cur = to_sink_[next_[j]];
      better = cand < cur || (cand == cur && revived < next_[j]);
    }
    if (!better) continue;
    // A formerly-unrouted alive neighbour gains a route; routed ones
    // just improve, leaving the counter alone.
    if (next_[j] == kNoRoute) --unrouted_alive_;
    next_[j] = revived;
    hop_distance_[j] = std::sqrt(nbr_d2_[k]);
  }
}

bool RoutingTable::Connected(std::size_t i,
                             const std::vector<bool>& alive) const {
  Require(i < positions_.size(), "node index out of range");
  std::size_t cur = i;
  std::size_t guard = 0;
  while (true) {
    if (!alive[cur]) return false;
    const std::size_t hop = next_[cur];
    if (hop == kSink) return true;
    if (hop == kNoRoute) return false;
    cur = hop;
    if (++guard > positions_.size()) return false;  // defensive loop guard
  }
}

}  // namespace wsn::netsim
