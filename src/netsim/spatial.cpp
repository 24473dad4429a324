#include "netsim/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

SpatialGrid::SpatialGrid(const std::vector<node::Position>& positions,
                         double cell_m)
    : size_(positions.size()), cell_m_(cell_m) {
  Require(!positions.empty(), "spatial grid needs at least one node");
  Require(cell_m > 0.0 && std::isfinite(cell_m),
          "spatial grid cell size must be positive and finite");

  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  min_x_ = std::numeric_limits<double>::infinity();
  min_y_ = std::numeric_limits<double>::infinity();
  for (const node::Position& p : positions) {
    Require(std::isfinite(p.x) && std::isfinite(p.y),
            "node positions must be finite");
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  // Keep the cell table O(N): a sparse deployment (huge extent, small
  // hop) would otherwise allocate extent^2 / cell^2 empty cells.  Growing
  // the cell size preserves query correctness — the 3x3 block of larger
  // cells still covers everything within the *requested* radius — it only
  // widens the candidate supersets.
  const double width = max_x - min_x_;
  const double height = max_y - min_y_;
  // The budget test runs in double: extent/hop ratios past 2^32 would
  // overflow a size_t cell product long before the loop settles.
  const auto cells_along = [](double extent, double cell) {
    return std::floor(extent / cell) + 1.0;
  };
  const double cell_budget = static_cast<double>(4 * size_ + 64);
  while (cells_along(width, cell_m_) * cells_along(height, cell_m_) >
         cell_budget) {
    cell_m_ *= 2.0;
  }
  nx_ = static_cast<std::size_t>(cells_along(width, cell_m_));
  ny_ = static_cast<std::size_t>(cells_along(height, cell_m_));
  inv_cell_ = 1.0 / cell_m_;

  // Counting sort into cells: one pass to count each cell, one to fill.
  // Filling in ascending node index keeps each cell's slice sorted, and
  // each fill cursor stops at its cell's end.
  std::vector<std::uint32_t> cell_of(size_);
  cells_.assign(nx_ * ny_, Cell{});
  for (std::size_t i = 0; i < size_; ++i) {
    cell_of[i] = static_cast<std::uint32_t>(CellOf(positions[i]));
    ++cells_[cell_of[i]].end;
  }
  std::uint32_t start = 0;
  for (Cell& c : cells_) {
    const std::uint32_t count = c.end;
    c.start = c.end = start;
    start += count;
  }
  items_.resize(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    items_[cells_[cell_of[i]].end++] = static_cast<std::uint32_t>(i);
  }
}

bool SpatialGrid::Erase(std::size_t j, const node::Position& p) {
  const std::size_t cell = CellOf(p);
  const auto first = items_.begin() + cells_[cell].start;
  const auto last = items_.begin() + cells_[cell].end;
  const auto it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return false;
  std::copy(it + 1, last, it);
  --cells_[cell].end;
  --size_;
  return true;
}

}  // namespace wsn::netsim
