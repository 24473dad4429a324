#include "netsim/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "netsim/spatial.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

const char* HeadAssignModeName(HeadAssignMode mode) noexcept {
  switch (mode) {
    case HeadAssignMode::kGrid:
      return "grid";
    case HeadAssignMode::kAllPairs:
      return "all-pairs";
  }
  return "?";
}

HeadAssignMode ParseHeadAssignMode(const std::string& name) {
  if (name == "grid") return HeadAssignMode::kGrid;
  if (name == "all-pairs") return HeadAssignMode::kAllPairs;
  throw util::InvalidArgument("unknown head-assignment mode '" + name +
                              "' (expected grid or all-pairs)");
}

void NodeClass::Validate() const {
  Require(!name.empty(), "node class name must be non-empty");
  Require(battery_mah > 0.0,
          "node class battery capacity must be positive");
  Require(battery_volts > 0.0, "node class battery voltage must be positive");
  Require(listen_duty_cycle >= 0.0 && listen_duty_cycle <= 1.0,
          "node class listen duty cycle must be in [0, 1]");
  Require(radio.elec_nj_per_bit >= 0.0 && radio.listen_mw >= 0.0 &&
              radio.sleep_mw >= 0.0,
          "node class radio powers must be non-negative");
}

ClusterAssignment AssignToNearestHeadAllPairs(const ClusterView& view,
                                              std::vector<std::size_t> heads) {
  const std::size_t n = view.Size();
  std::sort(heads.begin(), heads.end());
  ClusterAssignment out;
  out.head_of.assign(n, ClusterAssignment::kUnclustered);
  out.heads = std::move(heads);
  for (std::size_t h : out.heads) out.head_of[h] = h;
  if (out.heads.empty()) return out;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i] || out.head_of[i] == i) continue;
    // Nearest-head search compares in distance^2: the argmin (ties to
    // the lowest head index, heads being sorted) is the same and no
    // sqrt is ever needed — the metric value itself is not used.
    double best2 = std::numeric_limits<double>::infinity();
    std::size_t best_slot = ClusterAssignment::kUnclustered;
    for (std::size_t s = 0; s < out.heads.size(); ++s) {
      const double d2 = node::Distance2((*view.positions)[i],
                                        (*view.positions)[out.heads[s]]);
      if (d2 < best2) {
        best2 = d2;
        best_slot = s;
      }
    }
    out.head_of[i] = out.heads[best_slot];
  }
  return out;
}

namespace {

/// Sites of `heads` in head order.
std::vector<node::Position> HeadSites(
    const std::vector<std::size_t>& heads,
    const std::vector<node::Position>& positions) {
  std::vector<node::Position> sites;
  sites.reserve(heads.size());
  for (std::size_t h : heads) sites.push_back(positions[h]);
  return sites;
}

/// Grid cell side for ~1 site per cell: extent / sqrt(sites).  Degenerate
/// extents (all sites colocated) fall back to a unit cell — the grid
/// collapses to one cell and the query degrades to all-pairs, still
/// correct.
double HeadCellSize(const std::vector<node::Position>& sites) {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (const node::Position& p : sites) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double side = std::ceil(std::sqrt(static_cast<double>(sites.size())));
  const double cell = extent > 0.0 ? extent / side : 1.0;
  return cell > 0.0 ? cell : 1.0;
}

}  // namespace

HeadIndex::HeadIndex(const std::vector<std::size_t>& heads,
                     const std::vector<node::Position>& positions)
    : heads_(heads),
      pos_(HeadSites(heads, positions)),
      grid_(pos_, HeadCellSize(pos_)) {}

void HeadIndex::Erase(std::size_t head) {
  const auto it = std::lower_bound(heads_.begin(), heads_.end(), head);
  if (it != heads_.end() && *it == head) {
    const std::size_t j = static_cast<std::size_t>(it - heads_.begin());
    grid_.Erase(j, pos_[j]);
  }
}

HeadIndex& ClusterAssignment::EnsureIndex(
    const std::vector<node::Position>& positions) {
  if (!index || index->Size() != heads.size()) index.emplace(heads, positions);
  return *index;
}

std::size_t ClusterAssignment::ResolveHead(
    std::size_t i, const std::vector<node::Position>& positions) {
  const std::size_t h = head_of[i];
  if (h == kUnclustered || head_of[h] == h) return h;
  const HeadIndex& live = EnsureIndex(positions);
  head_of[i] = live.Head(live.Nearest(positions[i]));
  return head_of[i];
}

ClusterAssignment AssignToNearestHeadGrid(const ClusterView& view,
                                          std::vector<std::size_t> heads) {
  const std::size_t n = view.Size();
  std::sort(heads.begin(), heads.end());
  ClusterAssignment out;
  out.head_of.assign(n, ClusterAssignment::kUnclustered);
  out.heads = std::move(heads);
  for (std::size_t h : out.heads) out.head_of[h] = h;
  if (out.heads.empty()) return out;

  // Index the (few) heads, not the (many) nodes.  The fresh index's grid
  // index of a head is its slot in out.heads.
  const HeadIndex& index = out.EnsureIndex(*view.positions);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i] || out.head_of[i] == i) continue;
    const std::size_t j = index.Nearest((*view.positions)[i]);
    // j != kNone: heads is non-empty.
    out.head_of[i] = out.heads[j];
  }
  return out;
}

ClusterAssignment AssignToNearestHead(const ClusterView& view,
                                      std::vector<std::size_t> heads) {
  obs::PhaseTimer timer(view.assign_stopwatch);
  // Below a handful of heads the grid build costs more than it saves
  // and the all-pairs scan is already O(n); the result is identical
  // either way, so this is a pure perf dispatch.
  if (view.assign_mode == HeadAssignMode::kAllPairs || heads.size() <= 4) {
    return AssignToNearestHeadAllPairs(view, std::move(heads));
  }
  return AssignToNearestHeadGrid(view, std::move(heads));
}

namespace {

/// Surviving members of `heads` under `alive`.
std::vector<std::size_t> AliveHeads(const std::vector<std::size_t>& heads,
                                    const std::vector<bool>& alive) {
  std::vector<std::size_t> out;
  out.reserve(heads.size());
  for (std::size_t h : heads) {
    if (alive[h]) out.push_back(h);
  }
  return out;
}

/// The alive node with the highest remaining energy fraction (ties break
/// toward the lowest index); kUnclustered when nothing is alive.
std::size_t MostChargedAlive(const ClusterView& view) {
  view.RefreshEnergy();  // the one reader of the lazily-updated energies
  std::size_t best = ClusterAssignment::kUnclustered;
  double best_energy = -1.0;
  for (std::size_t i = 0; i < view.Size(); ++i) {
    if (!(*view.alive)[i]) continue;
    const double e = (*view.energy_fraction)[i];
    if (e > best_energy) {
      best_energy = e;
      best = i;
    }
  }
  return best;
}

}  // namespace

ClusterAssignment ClusteringProtocol::Repair(const ClusterAssignment& current,
                                             std::size_t round,
                                             const ClusterView& view,
                                             util::Rng& rng) {
  std::vector<std::size_t> survivors = AliveHeads(current.heads, *view.alive);
  if (survivors.empty()) return Elect(round, view, rng);
  return AssignToNearestHead(view, std::move(survivors));
}

bool ClusteringProtocol::RepairInPlace(ClusterAssignment& cluster,
                                       std::size_t dead_head,
                                       const ClusterView& view,
                                       std::vector<std::uint32_t>& /*unused*/) {
  // Decline when the last head died: the protocol's no-survivor policy —
  // a fresh Elect — must run.
  if (cluster.heads.size() <= 1) return false;
  const auto it =
      std::lower_bound(cluster.heads.begin(), cluster.heads.end(), dead_head);
  if (it == cluster.heads.end() || *it != dead_head) return false;
  cluster.EnsureIndex(*view.positions).Erase(dead_head);
  cluster.heads.erase(it);
  cluster.head_of[dead_head] = ClusterAssignment::kUnclustered;
  return true;
}

LeachClustering::LeachClustering(double head_fraction) : p_(head_fraction) {
  Require(p_ > 0.0 && p_ <= 1.0, "head fraction must be in (0, 1]");
  epoch_ = static_cast<std::size_t>(std::ceil(1.0 / p_));
}

ClusterAssignment LeachClustering::Elect(std::size_t round,
                                         const ClusterView& view,
                                         util::Rng& rng) {
  const std::size_t n = view.Size();
  if (last_head_round_.empty()) last_head_round_.assign(n, kNever);

  // Classic LEACH threshold; the denominator shrinks through the epoch
  // so every eligible node is guaranteed a turn within 1/p rounds.
  const double phase = static_cast<double>(round % epoch_);
  const double denom = 1.0 - p_ * phase;
  const double threshold = denom > 0.0 ? std::min(1.0, p_ / denom) : 1.0;

  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i]) continue;
    const bool eligible = last_head_round_[i] == kNever ||
                          round - last_head_round_[i] >= epoch_;
    // The draw happens for every alive node, eligible or not, so the RNG
    // consumption — and therefore the whole replication — does not depend
    // on the eligibility history.
    const double u = util::UniformDouble(rng);
    if (eligible && u < threshold) heads.push_back(i);
  }
  if (heads.empty()) {
    // Nobody volunteered (or everyone is inside the rotation window):
    // draft the most-charged alive node so the network keeps reporting.
    const std::size_t drafted = MostChargedAlive(view);
    if (drafted != ClusterAssignment::kUnclustered) heads.push_back(drafted);
  }
  for (std::size_t h : heads) last_head_round_[h] = round;
  return AssignToNearestHead(view, std::move(heads));
}

StaticClustering::StaticClustering(std::size_t head_count)
    : head_count_(head_count) {
  Require(head_count_ >= 1, "static clustering needs at least one head");
}

ClusterAssignment StaticClustering::Elect(std::size_t round,
                                          const ClusterView& view,
                                          util::Rng& rng) {
  if (!chosen_) {
    chosen_ = true;
    std::vector<std::size_t> alive_nodes;
    for (std::size_t i = 0; i < view.Size(); ++i) {
      if ((*view.alive)[i]) alive_nodes.push_back(i);
    }
    const std::size_t k = std::min(head_count_, alive_nodes.size());
    heads_.reserve(k);
    // Index-striding spreads the k heads evenly across the deployment
    // order (for the grid helper that is a spatial spread too).
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pick =
          (j * alive_nodes.size() + alive_nodes.size() / 2) / k;
      heads_.push_back(alive_nodes[std::min(pick, alive_nodes.size() - 1)]);
    }
    // Strided picks can collide on tiny deployments; dedupe.
    std::sort(heads_.begin(), heads_.end());
    heads_.erase(std::unique(heads_.begin(), heads_.end()), heads_.end());
  }
  (void)round;
  (void)rng;
  return AssignToNearestHead(view, AliveHeads(heads_, *view.alive));
}

const char* ClusterProtocolKindName(ClusterProtocolKind kind) noexcept {
  switch (kind) {
    case ClusterProtocolKind::kNone:
      return "none";
    case ClusterProtocolKind::kLeach:
      return "leach";
    case ClusterProtocolKind::kStatic:
      return "static";
  }
  return "?";
}

ClusterProtocolKind ParseClusterProtocolKind(const std::string& name) {
  if (name == "none") return ClusterProtocolKind::kNone;
  if (name == "leach") return ClusterProtocolKind::kLeach;
  if (name == "static") return ClusterProtocolKind::kStatic;
  throw util::InvalidArgument("unknown clustering protocol '" + name +
                              "' (expected none, leach or static)");
}

void ClusterConfig::Validate() const {
  Require(head_fraction > 0.0 && head_fraction <= 1.0,
          "cluster head fraction must be in (0, 1]");
  Require(aggregation >= 1, "cluster aggregation must be >= 1");
  Require(round_s >= 0.0, "cluster round length must be >= 0");
  if (Enabled()) {
    Require(round_s > 0.0,
            "clustering needs a positive round length (round_s)");
  }
}

std::unique_ptr<ClusteringProtocol> ClusterConfig::MakeProtocol(
    std::size_t node_count) const {
  if (factory) return factory();
  switch (protocol) {
    case ClusterProtocolKind::kNone:
      return nullptr;
    case ClusterProtocolKind::kLeach:
      return std::make_unique<LeachClustering>(head_fraction);
    case ClusterProtocolKind::kStatic: {
      std::size_t k = static_heads;
      if (k == 0) {
        k = static_cast<std::size_t>(
            std::ceil(head_fraction * static_cast<double>(node_count)));
      }
      return std::make_unique<StaticClustering>(std::max<std::size_t>(k, 1));
    }
  }
  return nullptr;
}

}  // namespace wsn::netsim
