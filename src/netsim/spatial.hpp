/// \file
/// Uniform spatial-grid index over a fixed deployment.
///
/// Greedy routing only ever cares about nodes within one hop range, so
/// scanning all N nodes per candidate query is O(N) wasted work for any
/// deployment larger than a single radio cell.  The grid buckets node
/// indices into square cells of side >= the query radius; every point
/// within that radius of a query position then lies in the 3x3 block of
/// cells around it, shrinking a candidate scan from N to the local
/// density (O(1) for bounded-density deployments such as grids).
///
/// Node *positions* never change during a replication, so the cell
/// geometry is fixed at construction.  The indexed *set* may shrink:
/// Erase drops a node from its cell and keeps the rest of the cell in
/// order, which lets an index over cluster heads follow head deaths.
/// Liveness is otherwise the caller's problem (the routing table
/// filters candidates through its alive mask).  Query positions outside
/// the bounding box (e.g. a sink placed off the deployment) clamp to
/// the nearest boundary cell, so they still see every in-range node.
///
/// Cell-size tradeoff: cells of exactly the hop range give the smallest
/// 3x3 superset that is still complete.  Larger cells scan more
/// candidates per query; smaller cells would require widening the block
/// and are therefore rejected.  When a sparse deployment would explode
/// the cell count (huge extent, small hop), the constructor grows the
/// cell size until the table stays O(N) — queries stay correct, only
/// the candidate supersets grow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "wsn/network.hpp"

namespace wsn::netsim {

/// Bucket index of node positions on a uniform square grid.
class SpatialGrid {
 public:
  /// NearestWhere() sentinel: no candidate matched (empty grid or every
  /// candidate excluded by the caller's distance function).
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Build the index with cells of side >= `cell_m` (> 0) covering the
  /// bounding box of `positions`.  The effective cell size is enlarged
  /// when needed to keep the cell table O(positions.size()).
  SpatialGrid(const std::vector<node::Position>& positions, double cell_m);

  /// Number of indexed nodes (construction size minus erasures).
  std::size_t Size() const noexcept { return size_; }

  /// Cells along x / y; their product is the cell-table size.
  std::size_t CellsX() const noexcept { return nx_; }
  std::size_t CellsY() const noexcept { return ny_; }

  /// The cell side actually used (>= the requested cell_m).
  double CellSize() const noexcept { return cell_m_; }

  /// Row-major id of the (clamped) cell holding `p` — the cell every
  /// query from `p` centres on.
  std::size_t CellOf(const node::Position& p) const {
    return CellCoord(p.y, min_y_, ny_) * nx_ + CellCoord(p.x, min_x_, nx_);
  }

  /// Drop node j, indexed at position `p`, from the index.  The rest of
  /// its cell keeps ascending node order, so every query answers as if j
  /// had never been indexed.  Returns false (and changes nothing) when j
  /// is not indexed at `p`.
  bool Erase(std::size_t j, const node::Position& p);

  /// Invoke `fn(j)` for every node j in the 3x3 cell block around `p`.
  /// This is a superset of the nodes within CellSize() of `p`; callers
  /// apply their own exact range test.  Iteration order is unspecified —
  /// order-sensitive callers (greedy tie-breaking!) must sort what they
  /// collect.
  template <typename Fn>
  void ForEachCandidate(const node::Position& p, Fn&& fn) const {
    const std::size_t cx = CellCoord(p.x, min_x_, nx_);
    const std::size_t cy = CellCoord(p.y, min_y_, ny_);
    const std::size_t x0 = cx > 0 ? cx - 1 : 0;
    const std::size_t x1 = cx + 1 < nx_ ? cx + 1 : nx_ - 1;
    const std::size_t y0 = cy > 0 ? cy - 1 : 0;
    const std::size_t y1 = cy + 1 < ny_ ? cy + 1 : ny_ - 1;
    for (std::size_t y = y0; y <= y1; ++y) {
      for (std::size_t x = x0; x <= x1; ++x) ScanCell(y * nx_ + x, fn);
    }
  }

  /// Invoke `fn(j)` for every node j in a cell whose Chebyshev ring
  /// distance from `p`'s (clamped) cell is at most
  /// ceil(radius_m / CellSize()) — a superset of the nodes within
  /// `radius_m` of `p`; callers apply their own exact range test.  Cells
  /// are visited ring by ring outward (row-major within a ring, ascending
  /// node index within a cell), so the visit order is deterministic.
  /// Off-grid query points clamp like every other query.
  template <typename Fn>
  void ForEachInRadius(const node::Position& p, double radius_m,
                       Fn&& fn) const {
    const std::size_t cx = CellCoord(p.x, min_x_, nx_);
    const std::size_t cy = CellCoord(p.y, min_y_, ny_);
    // Cells at ring r > radius/cell + 1 lie strictly beyond the radius
    // from anywhere inside the query cell (min distance (r-1)*cell).
    std::size_t reach = static_cast<std::size_t>(radius_m * inv_cell_) + 1;
    reach = reach < MaxRing(cx, cy) ? reach : MaxRing(cx, cy);
    for (std::size_t r = 0; r <= reach; ++r) {
      ForEachInRing(cx, cy, r, fn);
    }
  }

  /// Ring-expanding exact nearest query: return the index j minimizing
  /// `dist2(j)` over all indexed nodes, ties broken toward the lowest j.
  /// `dist2` supplies the squared distance (or any comparable cost) of
  /// candidate j; returning +infinity excludes j (a dead node, say).
  /// Rings are scanned outward from `p`'s cell and the search stops as
  /// soon as no unscanned cell can hold a closer candidate, so the cost
  /// is the local occupancy around `p`, not Size().  Returns kNone when
  /// every candidate was excluded.  The bound (r-1)*CellSize() on the
  /// distance to ring r holds for clamped off-grid queries too: the
  /// clamped axis only adds distance.
  template <typename Dist2Fn>
  std::size_t NearestWhere(const node::Position& p, Dist2Fn&& dist2) const {
    const std::size_t cx = CellCoord(p.x, min_x_, nx_);
    const std::size_t cy = CellCoord(p.y, min_y_, ny_);
    const std::size_t last_ring = MaxRing(cx, cy);
    double best2 = std::numeric_limits<double>::infinity();
    std::size_t best = kNone;
    for (std::size_t r = 0; r <= last_ring; ++r) {
      if (best != kNone && r >= 2) {
        // Every cell at ring r is at least (r-1) cells away in x or y.
        const double reach = static_cast<double>(r - 1) * cell_m_;
        if (reach * reach > best2) break;
      }
      ForEachInRing(cx, cy, r, [&](std::size_t j) {
        const double d2 = dist2(j);
        if (d2 == std::numeric_limits<double>::infinity()) return;
        if (d2 < best2 || (d2 == best2 && j < best)) {
          best2 = d2;
          best = j;
        }
      });
    }
    return best;
  }

 private:

  /// Invoke `fn(j)` for every node j in `cell`, in ascending node index.
  template <typename Fn>
  void ScanCell(std::size_t cell, Fn& fn) const {
    for (std::uint32_t k = cells_[cell].start; k < cells_[cell].end; ++k) {
      fn(static_cast<std::size_t>(items_[k]));
    }
  }

  /// Invoke `fn(j)` for every node j in a cell at Chebyshev distance
  /// exactly `r` from cell (cx, cy), skipping cells outside the grid.
  /// Row-major over the ring; ascending node index within each cell.
  template <typename Fn>
  void ForEachInRing(std::size_t cx, std::size_t cy, std::size_t r,
                     Fn&& fn) const {
    if (r == 0) {
      ScanCell(cy * nx_ + cx, fn);
      return;
    }
    const std::size_t x0 = cx >= r ? cx - r : 0;
    const std::size_t x1 = cx + r < nx_ ? cx + r : nx_ - 1;
    const std::size_t y0 = cy >= r ? cy - r : 0;
    const std::size_t y1 = cy + r < ny_ ? cy + r : ny_ - 1;
    for (std::size_t y = y0; y <= y1; ++y) {
      const bool edge_row = (cy >= r && y == cy - r) || y == cy + r;
      if (edge_row) {
        for (std::size_t x = x0; x <= x1; ++x) ScanCell(y * nx_ + x, fn);
      } else {
        if (cx >= r) ScanCell(y * nx_ + cx - r, fn);
        if (cx + r < nx_) ScanCell(y * nx_ + cx + r, fn);
      }
    }
  }

  /// Largest ring around (cx, cy) that still intersects the grid.
  std::size_t MaxRing(std::size_t cx, std::size_t cy) const noexcept {
    const std::size_t rx = cx > nx_ - 1 - cx ? cx : nx_ - 1 - cx;
    const std::size_t ry = cy > ny_ - 1 - cy ? cy : ny_ - 1 - cy;
    return rx > ry ? rx : ry;
  }

  /// Cell coordinate of `v` along one axis, clamped into [0, cells).
  std::size_t CellCoord(double v, double min_v, std::size_t cells) const {
    if (v <= min_v) return 0;
    const std::size_t c = static_cast<std::size_t>((v - min_v) * inv_cell_);
    return c < cells ? c : cells - 1;
  }

  std::size_t size_ = 0;
  double cell_m_ = 0.0;
  double inv_cell_ = 0.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  /// The nodes of one cell are items_[start .. end), ascending node
  /// index.  Erase shifts a cell's tail left and pulls its end in; slots
  /// past the end are dead.
  struct Cell {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
  };
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> items_;
};

}  // namespace wsn::netsim
