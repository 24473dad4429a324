// Spatial-grid neighbour index + incremental routing repair: grid
// candidate completeness on boundary/degenerate geometry, and the
// randomized equivalence suite pinning RepairAfterDeath against the full
// recompute over random kill sequences — several sizes, multi-sink, and
// end-to-end through the simulator against its oracle twin, clustered
// mode included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/models.hpp"
#include "netsim/netsim.hpp"
#include "netsim/routing.hpp"
#include "netsim/spatial.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {
namespace {

std::vector<std::size_t> Candidates(const SpatialGrid& grid,
                                    node::Position p) {
  std::vector<std::size_t> out;
  grid.ForEachCandidate(p, [&](std::size_t j) { out.push_back(j); });
  return out;
}

bool Contains(const std::vector<std::size_t>& xs, std::size_t x) {
  for (std::size_t v : xs) {
    if (v == x) return true;
  }
  return false;
}

TEST(SpatialGrid, CandidateSetsCoverEveryInRangeNodePair) {
  // Irregular cloud: every pair within the cell size must be mutually
  // visible through the 3x3 block, including pairs straddling cells.
  std::vector<node::Position> pos;
  util::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    pos.push_back({util::UniformDouble(rng) * 500.0,
                   util::UniformDouble(rng) * 300.0});
  }
  const double range = 60.0;
  const SpatialGrid grid(pos, range);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const std::vector<std::size_t> cand = Candidates(grid, pos[i]);
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (node::Distance2(pos[i], pos[j]) <= range * range) {
        EXPECT_TRUE(Contains(cand, j))
            << "node " << j << " in range of " << i << " but not a candidate";
      }
    }
  }
}

TEST(SpatialGrid, NodeExactlyOnCellBoundaryIsVisibleFromBothSides) {
  // Node 1 sits exactly on the x = 100 cell boundary (cell size 100).
  const std::vector<node::Position> pos{{50.0, 50.0},
                                        {100.0, 50.0},
                                        {150.0, 50.0},
                                        {350.0, 50.0}};
  const SpatialGrid grid(pos, 100.0);
  EXPECT_TRUE(Contains(Candidates(grid, {50.0, 50.0}), 1));
  EXPECT_TRUE(Contains(Candidates(grid, {150.0, 50.0}), 1));
  // The boundary node itself must see neighbours in the cells on both
  // sides of its boundary.
  const std::vector<std::size_t> own = Candidates(grid, pos[1]);
  EXPECT_TRUE(Contains(own, 0));
  EXPECT_TRUE(Contains(own, 2));
  EXPECT_FALSE(Contains(own, 3));  // two cells away, correctly pruned
}

TEST(SpatialGrid, QueryOutsideTheBoundingBoxClampsToBoundaryCells) {
  // A sink far outside the deployment must still see the boundary nodes
  // (the query clamps; the caller's exact range test decides membership).
  const std::vector<node::Position> pos{{10.0, 10.0}, {20.0, 10.0}};
  const SpatialGrid grid(pos, 50.0);
  EXPECT_TRUE(Contains(Candidates(grid, {-500.0, -500.0}), 0));
  EXPECT_TRUE(Contains(Candidates(grid, {1000.0, 1000.0}), 1));
}

TEST(SpatialGrid, SingleNodeAndCoincidentNodesWork) {
  const SpatialGrid one({{5.0, 5.0}}, 10.0);
  EXPECT_EQ(one.Size(), 1u);
  EXPECT_EQ(Candidates(one, {5.0, 5.0}).size(), 1u);

  const SpatialGrid same({{3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}}, 1.0);
  EXPECT_EQ(Candidates(same, {3.0, 3.0}).size(), 3u);
}

TEST(SpatialGrid, SparseDeploymentKeepsTheCellTableBounded) {
  // Two nodes a million meters apart with a 1 m cell request: the grid
  // must grow its cell size instead of allocating 10^12 cells.
  const std::vector<node::Position> pos{{0.0, 0.0}, {1.0e6, 1.0e6}};
  const SpatialGrid grid(pos, 1.0);
  EXPECT_GE(grid.CellSize(), 1.0);
  EXPECT_LE(grid.CellsX() * grid.CellsY(), 4u * pos.size() + 64u);
  // Far apart: neither is a candidate of the other.
  EXPECT_FALSE(Contains(Candidates(grid, {0.0, 0.0}), 1));

  // Extent/cell ratios past 2^32 used to overflow the size_t cell
  // product and corrupt the CSR fill; the budget test runs in double.
  const SpatialGrid huge({{0.0, 0.0}, {4294967295.0, 4294967295.0}}, 1.0);
  EXPECT_LE(huge.CellsX() * huge.CellsY(), 4u * 2u + 64u);
  EXPECT_TRUE(Contains(Candidates(huge, {0.0, 0.0}), 0));
}

TEST(SpatialGrid, RejectsInvalidInput) {
  EXPECT_THROW(SpatialGrid({}, 10.0), util::InvalidArgument);
  EXPECT_THROW(SpatialGrid({{0.0, 0.0}}, 0.0), util::InvalidArgument);
  EXPECT_THROW(SpatialGrid({{0.0, 0.0}}, -5.0), util::InvalidArgument);
}

// ---------------------------------------------------------------------
// Ring-expanding queries (ISSUE 7): ForEachInRadius and NearestWhere.

std::size_t BruteNearest(const std::vector<node::Position>& pos,
                         const std::vector<bool>& usable, node::Position p) {
  std::size_t best = SpatialGrid::kNone;
  double best2 = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < pos.size(); ++j) {
    if (!usable[j]) continue;
    const double d2 = node::Distance2(p, pos[j]);
    if (d2 < best2) {  // strict: ties keep the lowest index
      best2 = d2;
      best = j;
    }
  }
  return best;
}

TEST(SpatialGridRings, RadiusQueryCoversEveryInRangeNode) {
  // Radius queries must be supersets of the exact disc for radii both
  // below and well above the cell size (multi-ring reach).
  util::Rng rng(7);
  std::vector<node::Position> pos;
  for (int i = 0; i < 150; ++i) {
    pos.push_back({util::UniformDouble(rng) * 400.0,
                   util::UniformDouble(rng) * 250.0});
  }
  const SpatialGrid grid(pos, 40.0);
  for (const double radius : {10.0, 40.0, 95.0, 1000.0}) {
    for (std::size_t i = 0; i < pos.size(); i += 7) {
      std::vector<std::size_t> seen;
      grid.ForEachInRadius(pos[i], radius,
                           [&](std::size_t j) { seen.push_back(j); });
      for (std::size_t j = 0; j < pos.size(); ++j) {
        if (node::Distance2(pos[i], pos[j]) <= radius * radius) {
          EXPECT_TRUE(Contains(seen, j))
              << "node " << j << " within " << radius << " m of " << i
              << " but not visited";
        }
      }
    }
  }
}

TEST(SpatialGridRings, RadiusQueryClampsOffGridPoints) {
  const std::vector<node::Position> pos{{10.0, 10.0}, {200.0, 10.0}};
  const SpatialGrid grid(pos, 25.0);
  std::vector<std::size_t> seen;
  grid.ForEachInRadius({-300.0, -300.0}, 500.0,
                       [&](std::size_t j) { seen.push_back(j); });
  EXPECT_TRUE(Contains(seen, 0));
  EXPECT_TRUE(Contains(seen, 1));
}

TEST(SpatialGridRings, NearestMatchesBruteForceOnRandomClouds) {
  // The exactness + lowest-index-tie-break contract, checked against a
  // brute-force scan over random clouds, random exclusion masks, and
  // query points inside, between and far outside the bounding box.  The
  // sparse cell size leaves most cells empty, so the expanding search
  // crosses many empty rings before it can stop.
  util::Rng rng(2008);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 1 + (rng() % 50);
    std::vector<node::Position> pos;
    for (std::size_t i = 0; i < n; ++i) {
      pos.push_back({util::UniformDouble(rng) * 300.0,
                     util::UniformDouble(rng) * 300.0});
    }
    const double cell = 5.0 + util::UniformDouble(rng) * 60.0;
    const SpatialGrid grid(pos, cell);
    std::vector<bool> usable(n, true);
    for (std::size_t i = 0; i < n; ++i) usable[i] = (rng() % 4) != 0;
    for (int q = 0; q < 10; ++q) {
      const node::Position p{util::UniformDouble(rng) * 600.0 - 150.0,
                             util::UniformDouble(rng) * 600.0 - 150.0};
      const auto pd2 = [&](std::size_t j) {
        return usable[j] ? node::Distance2(p, pos[j])
                         : std::numeric_limits<double>::infinity();
      };
      EXPECT_EQ(grid.NearestWhere(p, pd2), BruteNearest(pos, usable, p))
          << "rep " << rep << " query " << q;
    }
  }
}

TEST(SpatialGridRings, NearestTiesBreakTowardLowestIndex) {
  // Two candidates exactly equidistant from the query point, placed in
  // different cells so ring order alone cannot decide.
  const std::vector<node::Position> pos{{100.0, 50.0}, {0.0, 50.0}};
  const SpatialGrid grid(pos, 20.0);
  const node::Position q{50.0, 50.0};
  const std::size_t got = grid.NearestWhere(
      q, [&](std::size_t j) { return node::Distance2(q, pos[j]); });
  EXPECT_EQ(got, 0u);
}

TEST(SpatialGridRings, NearestOnSingleOccupantAndAllExcludedGrids) {
  const SpatialGrid one({{5.0, 5.0}}, 10.0);
  const node::Position far_q{900.0, -900.0};
  EXPECT_EQ(one.NearestWhere(far_q,
                             [&](std::size_t) {
                               return node::Distance2(far_q, {5.0, 5.0});
                             }),
            0u);
  // Every candidate excluded (the all-heads-dead case) -> kNone.
  EXPECT_EQ(one.NearestWhere(far_q,
                             [](std::size_t) {
                               return std::numeric_limits<double>::infinity();
                             }),
            SpatialGrid::kNone);
}

// ---------------------------------------------------------------------
// Erasable cells and the shared ring-search frontier.

/// Random cloud; every other one is snapped to a coarse lattice so exact
/// distance ties (and coincident nodes) actually occur.
std::vector<node::Position> TieProneCloud(util::Rng& rng, std::size_t n,
                                          double extent, bool snap) {
  std::vector<node::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    double x = util::UniformDouble(rng) * extent;
    double y = util::UniformDouble(rng) * extent;
    if (snap) {
      x = std::floor(x / 25.0) * 25.0;
      y = std::floor(y / 25.0) * 25.0;
    }
    pos.push_back({x, y});
  }
  return pos;
}

TEST(SpatialGridErase, QueriesAnswerAsIfErasedNodesWereNeverIndexed) {
  util::Rng rng(1306);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t n = 2 + (rng() % 80);
    const std::vector<node::Position> pos =
        TieProneCloud(rng, n, 400.0, rep % 2 == 0);
    SpatialGrid grid(pos, 10.0 + util::UniformDouble(rng) * 50.0);
    std::vector<bool> indexed(n, true);
    std::size_t left = n;
    while (left > 0) {
      const std::size_t victim = rng() % n;
      EXPECT_EQ(grid.Erase(victim, pos[victim]), indexed[victim])
          << "rep " << rep;
      if (indexed[victim]) --left;
      indexed[victim] = false;
      ASSERT_EQ(grid.Size(), left);
      for (int q = 0; q < 5; ++q) {
        const node::Position p{util::UniformDouble(rng) * 500.0 - 50.0,
                               util::UniformDouble(rng) * 500.0 - 50.0};
        const std::size_t got = grid.NearestWhere(
            p, [&](std::size_t j) { return node::Distance2(p, pos[j]); });
        EXPECT_EQ(got, BruteNearest(pos, indexed, p)) << "rep " << rep;
        // Every survivor is visited once, ascending within its cell.
        std::vector<std::size_t> seen;
        grid.ForEachInRadius(p, 1.0e9, [&](std::size_t j) {
          EXPECT_TRUE(indexed[j]) << "erased node " << j << " visited";
          if (!seen.empty() &&
              grid.CellOf(pos[seen.back()]) == grid.CellOf(pos[j])) {
            EXPECT_LT(seen.back(), j) << "cell order broken";
          }
          seen.push_back(j);
        });
        EXPECT_EQ(seen.size(), left);
      }
    }
    EXPECT_FALSE(grid.Erase(n, pos[0])) << "never indexed";
  }
}

TEST(Distance2, MatchesSquaredDistance) {
  const node::Position a{3.0, 4.0};
  const node::Position b{0.0, 0.0};
  EXPECT_DOUBLE_EQ(node::Distance2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(node::Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(node::Distance(a, b) * node::Distance(a, b),
                   node::Distance2(a, b));
}

// ---------------------------------------------------------------------
// Routing-table equivalence machinery.

void ExpectTablesEqual(const RoutingTable& a, const RoutingTable& b,
                       const char* what) {
  ASSERT_EQ(a.Size(), b.Size());
  for (std::size_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(a.NextHop(i), b.NextHop(i)) << what << ": node " << i;
    EXPECT_DOUBLE_EQ(a.HopDistance(i), b.HopDistance(i))
        << what << ": node " << i;
    EXPECT_DOUBLE_EQ(a.DistanceToSink(i), b.DistanceToSink(i))
        << what << ": node " << i;
  }
}

std::vector<node::Position> RandomDeployment(util::Rng& rng, std::size_t n,
                                             double extent) {
  std::vector<node::Position> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({util::UniformDouble(rng) * extent,
                   util::UniformDouble(rng) * extent});
  }
  return pos;
}

// Nodes j != i within `hop` of node i, by scanning every node.
std::size_t BruteNeighborCount(const std::vector<node::Position>& pos,
                               std::size_t i, double hop) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    if (j != i && node::Distance(pos[i], pos[j]) <= hop) ++count;
  }
  return count;
}

// The randomized equivalence suite: 200 random kill sequences across
// several sizes and sink counts.  After every kill, the incrementally
// repaired table must match the full recompute, route for route.  Both
// read the grid-built neighbour lists, so each deployment first checks
// them against an all-pairs count: the lists are range-filtered,
// duplicate-free and sorted, so equal counts make Recompute the greedy
// scan over every node.
TEST(RoutingEquivalence, IncrementalRepairMatchesFullRecomputeOverKills) {
  util::Rng rng(2008);
  const std::size_t kSequences = 200;
  for (std::size_t seq = 0; seq < kSequences; ++seq) {
    const std::size_t n = 2 + (rng() % 60);
    const double extent = 100.0 + util::UniformDouble(rng) * 200.0;
    const double hop = 30.0 + util::UniformDouble(rng) * 40.0;
    const std::vector<node::Position> pos = RandomDeployment(rng, n, extent);

    std::vector<node::Position> sinks{{0.0, 0.0}};
    if (seq % 3 == 1) sinks.push_back({extent, extent});
    if (seq % 3 == 2) {
      sinks.push_back({extent, 0.0});
      sinks.push_back({-50.0, extent * 2.0});  // sink outside the grid
    }

    RoutingTable incremental(sinks, hop, pos);
    RoutingTable full(sinks, hop, pos);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(incremental.NeighborCount(i), BruteNeighborCount(pos, i, hop))
          << "sequence " << seq << ", node " << i;
    }

    std::vector<bool> alive(n, true);
    full.Recompute(alive);
    ExpectTablesEqual(incremental, full, "all-alive construction");
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    // Fisher-Yates for a random kill order; kill about half the nodes.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    const std::size_t kills = 1 + n / 2;
    for (std::size_t k = 0; k < kills; ++k) {
      const std::size_t dead = order[k];
      alive[dead] = false;
      incremental.RepairAfterDeath(dead, alive);
      full.Recompute(alive);
      ExpectTablesEqual(incremental, full, "incremental vs full");
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "divergence in sequence " << seq << " after kill " << k;
      }
    }
  }
}

TEST(RoutingEquivalence, SingleNodeTable) {
  // N=1 grid-index edge case: in sink range -> kSink, out of range ->
  // kNoRoute, and a death repairs to kNoRoute without touching anyone.
  RoutingTable near({{0.0, 0.0}}, 60.0, {{30.0, 0.0}});
  EXPECT_EQ(near.NextHop(0), RoutingTable::kSink);

  RoutingTable far({{0.0, 0.0}}, 60.0, {{300.0, 0.0}});
  EXPECT_EQ(far.NextHop(0), RoutingTable::kNoRoute);

  std::vector<bool> alive{false};
  near.RepairAfterDeath(0, alive);
  EXPECT_EQ(near.NextHop(0), RoutingTable::kNoRoute);
  EXPECT_DOUBLE_EQ(near.HopDistance(0), 0.0);
}

// All-alive cross-validation against the static estimator: the greedy
// rule (strictly-closer, lowest index on ties) must be bit-identical to
// wsn::node::Network::NextHop, with only the documented sentinel
// difference (kSink / kNoRoute both map to "own index" there).
TEST(RoutingEquivalence, MatchesNetworkNextHopAllAlive) {
  util::Rng rng(77);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 2 + (rng() % 80);
    const double extent = 150.0 + util::UniformDouble(rng) * 150.0;
    const double hop = 35.0 + util::UniformDouble(rng) * 30.0;
    const std::vector<node::Position> pos = RandomDeployment(rng, n, extent);

    node::NetworkConfig net_cfg;
    net_cfg.sink = {0.0, 0.0};
    net_cfg.max_hop_m = hop;
    const node::Network network(net_cfg, pos);
    const RoutingTable table({net_cfg.sink}, hop, pos);

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t expected = network.NextHop(i);
      const std::size_t got = table.NextHop(i);
      if (got == RoutingTable::kSink) {
        EXPECT_EQ(expected, i);
        EXPECT_LE(table.DistanceToSink(i), hop);
      } else if (got == RoutingTable::kNoRoute) {
        EXPECT_EQ(expected, i);  // the estimator's direct-to-sink long shot
        EXPECT_GT(table.DistanceToSink(i), hop);
      } else {
        EXPECT_EQ(expected, got) << "node " << i;
        EXPECT_DOUBLE_EQ(table.HopDistance(i),
                         node::Distance(pos[i], pos[got]));
      }
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end: the simulator must produce identical replications with and
// without NetSimConfig::oracle, flat (single and multi-sink) and
// clustered.

NetSimConfig ScaleSimConfig(std::size_t cols, std::size_t rows) {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 4.0;
  cfg.network.node.cpu.service_rate = 40.0;
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 0.02;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(cols, rows, 15.0);
  cfg.horizon_s = 1500.0;
  return cfg;
}

NetSimReport RunSim(NetSimConfig cfg, bool oracle, std::uint64_t seed) {
  cfg.oracle = oracle;
  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model),
                       util::Rng(seed).MakeStream(0));
  return sim.Run();
}

TEST(RoutingEquivalence, SimulatorMatchesOracleFlat) {
  const NetSimConfig cfg = ScaleSimConfig(8, 6);
  const NetSimReport inc = RunSim(cfg, /*oracle=*/false, 555);
  EXPECT_GT(inc.routing_repairs, 0u) << "test must exercise repairs";
  EXPECT_EQ(FirstReportDifference(inc, RunSim(cfg, true, 555)), "");
}

TEST(RoutingEquivalence, SimulatorMatchesOracleMultiSink) {
  NetSimConfig cfg = ScaleSimConfig(8, 6);
  cfg.sinks = {{0.0, 0.0}, {135.0, 105.0}};
  const NetSimReport inc = RunSim(cfg, /*oracle=*/false, 808);
  EXPECT_GT(inc.routing_repairs, 0u);
  EXPECT_EQ(FirstReportDifference(inc, RunSim(cfg, true, 808)), "");
}

TEST(RoutingEquivalence, SimulatorMatchesOracleClustered) {
  // Member deaths take the clustered fast path; head deaths repair in
  // place against the oracle's full re-assignment.
  NetSimConfig cfg = ScaleSimConfig(7, 7);
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.round_s = 100.0;
  cfg.cluster.aggregation = 4;
  const NetSimReport inc = RunSim(cfg, /*oracle=*/false, 99);
  EXPECT_GT(inc.routing_repairs, 0u);
  EXPECT_EQ(FirstReportDifference(inc, RunSim(cfg, true, 99)), "");
}

}  // namespace
}  // namespace wsn::netsim
