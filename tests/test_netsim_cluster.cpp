// Clustered / heterogeneous network simulation: node-class validation,
// multi-sink routing, LEACH head rotation and death-triggered
// re-election, aggregation bookkeeping, determinism across thread
// counts, and the policy ablation (rotation must beat static heads on
// first-node-death in the documented configuration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "core/models.hpp"
#include "netsim/cluster.hpp"
#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "netsim/routing.hpp"
#include "util/error.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {
namespace {

energy::PowerStateTable TinyCpuTable() {
  energy::PowerStateTable t;
  t.name = "tiny";
  t.standby_mw = 0.005;
  t.idle_mw = 0.01;
  t.powerup_mw = 0.02;
  t.active_mw = 0.02;
  return t;
}

/// Small grid with packet-dominated energy so protocol policy decides
/// lifetimes within a short horizon.
NetSimConfig GridConfig(std::size_t cols, std::size_t rows,
                        double battery_mah) {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 2.0;
  cfg.network.node.cpu.service_rate = 20.0;
  cfg.network.node.cpu_power = TinyCpuTable();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = battery_mah;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(cols, rows, 15.0);
  return cfg;
}

/// Assignment-helper view over test-owned vectors (energies already
/// current, so no refresh hook; grid mode unless a test overrides).
ClusterView MakeView(const std::vector<node::Position>& positions,
                     const std::vector<node::Position>& sinks,
                     const std::vector<bool>& alive,
                     const std::vector<double>& energy) {
  ClusterView view;
  view.positions = &positions;
  view.sinks = &sinks;
  view.alive = &alive;
  view.energy_fraction = &energy;
  return view;
}

NetSimConfig LeachConfig(std::size_t cols, std::size_t rows,
                         double battery_mah, double round_s) {
  NetSimConfig cfg = GridConfig(cols, rows, battery_mah);
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.head_fraction = 0.2;
  cfg.cluster.round_s = round_s;
  cfg.cluster.aggregation = 4;
  return cfg;
}

TEST(NodeClassValidation, RejectsNegativeCapacityAndBadFields) {
  NodeClass cls;
  cls.name = "standard";
  cls.battery_mah = -1.0;
  EXPECT_THROW(cls.Validate(), util::InvalidArgument);
  cls.battery_mah = 100.0;
  cls.battery_volts = 0.0;
  EXPECT_THROW(cls.Validate(), util::InvalidArgument);
  cls.battery_volts = 3.0;
  cls.listen_duty_cycle = 1.5;
  EXPECT_THROW(cls.Validate(), util::InvalidArgument);
  cls.listen_duty_cycle = 0.01;
  cls.name.clear();
  EXPECT_THROW(cls.Validate(), util::InvalidArgument);
  cls.name = "standard";
  EXPECT_NO_THROW(cls.Validate());
}

TEST(NodeClassValidation, ConfigRejectsUnknownAndInconsistentClasses) {
  NetSimConfig cfg = GridConfig(2, 2, 0.1);
  NodeClass standard;
  standard.name = "standard";
  standard.battery_mah = 0.1;
  cfg.classes = {standard};

  cfg.node_class = {"standard", "advanced", "standard", "standard"};
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);  // unknown name

  cfg.node_class = {"standard", "standard"};
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);  // wrong arity

  cfg.node_class.assign(4, "standard");
  EXPECT_NO_THROW(cfg.Validate());

  NodeClass negative = standard;
  negative.name = "broken";
  negative.battery_mah = -5.0;
  cfg.classes.push_back(negative);
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);  // bad class

  cfg.classes = {standard, standard};  // duplicate name
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);

  NetSimConfig orphan = GridConfig(2, 2, 0.1);
  orphan.node_class.assign(4, "standard");  // names without classes
  EXPECT_THROW(orphan.Validate(), util::InvalidArgument);
}

TEST(NodeClassValidation, ClusterConfigKnobs) {
  NetSimConfig cfg = GridConfig(2, 2, 0.1);
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.round_s = 0.0;  // clustering needs a round length
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);
  cfg.cluster.round_s = 10.0;
  cfg.cluster.aggregation = 0;
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);
  cfg.cluster.aggregation = 2;
  cfg.cluster.head_fraction = 1.5;
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);
  cfg.cluster.head_fraction = 0.25;
  EXPECT_NO_THROW(cfg.Validate());

  EXPECT_THROW(ParseClusterProtocolKind("votes"), util::InvalidArgument);
  EXPECT_EQ(ParseClusterProtocolKind("leach"), ClusterProtocolKind::kLeach);
}

TEST(PerNodeConfigsBridge, ClassOverridesAndBatteryPrecedence) {
  NetSimConfig cfg = GridConfig(2, 1, 0.1);
  NodeClass big;
  big.name = "big";
  big.battery_mah = 0.9;
  big.radio = cfg.network.node.radio;
  big.radio.listen_mw = 120.0;
  NodeClass small = big;
  small.name = "small";
  small.battery_mah = 0.2;
  cfg.classes = {big, small};
  cfg.node_class = {"big", "small"};

  std::vector<node::NodeConfig> per_node = PerNodeConfigs(cfg);
  ASSERT_EQ(per_node.size(), 2u);
  EXPECT_DOUBLE_EQ(per_node[0].battery_mah, 0.9);
  EXPECT_DOUBLE_EQ(per_node[1].battery_mah, 0.2);
  EXPECT_DOUBLE_EQ(per_node[0].radio.listen_mw, 120.0);

  // The explicit per-node override outranks the class battery.
  cfg.battery_mah_override = {0.5, 0.5};
  per_node = PerNodeConfigs(cfg);
  EXPECT_DOUBLE_EQ(per_node[0].battery_mah, 0.5);
  EXPECT_DOUBLE_EQ(per_node[1].battery_mah, 0.5);
}

TEST(MultiSinkRouting, NodesRouteTowardTheirNearestSink) {
  // Two nodes, each within direct range of a different sink; with only
  // the origin sink the far node would need a relay it does not have.
  const std::vector<node::Position> positions = {{30.0, 0.0}, {170.0, 0.0}};
  RoutingTable single({0.0, 0.0}, 40.0, positions);
  EXPECT_EQ(single.NextHop(0), RoutingTable::kSink);
  EXPECT_EQ(single.NextHop(1), RoutingTable::kNoRoute);

  RoutingTable dual({{0.0, 0.0}, {200.0, 0.0}}, 40.0, positions);
  EXPECT_EQ(dual.NextHop(0), RoutingTable::kSink);
  EXPECT_EQ(dual.NextHop(1), RoutingTable::kSink);
  EXPECT_DOUBLE_EQ(dual.DistanceToSink(1), 30.0);
  ASSERT_EQ(dual.Sinks().size(), 2u);
}

TEST(ClusteringProtocols, LeachElectsAndRotatesDeterministically) {
  const std::vector<node::Position> positions = node::MakeGrid(3, 3, 10.0);
  const std::vector<node::Position> sinks = {{0.0, 0.0}};
  const std::vector<bool> alive(positions.size(), true);
  const std::vector<double> energy(positions.size(), 1.0);
  ClusterView view = MakeView(positions, sinks, alive, energy);

  LeachClustering a(0.3);
  LeachClustering b(0.3);
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  for (std::size_t round = 0; round < 6; ++round) {
    const ClusterAssignment ca = a.Elect(round, view, rng_a);
    const ClusterAssignment cb = b.Elect(round, view, rng_b);
    ASSERT_FALSE(ca.heads.empty()) << "round " << round;
    EXPECT_EQ(ca.heads, cb.heads) << "round " << round;
    EXPECT_EQ(ca.head_of, cb.head_of) << "round " << round;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_NE(ca.head_of[i], ClusterAssignment::kUnclustered);
    }
  }
}

TEST(ClusteringProtocols, StaticKeepsHeadsAndNeverReplacesDeadOnes) {
  const std::vector<node::Position> positions = node::MakeGrid(4, 1, 10.0);
  const std::vector<node::Position> sinks = {{0.0, 0.0}};
  std::vector<bool> alive(positions.size(), true);
  const std::vector<double> energy(positions.size(), 1.0);
  ClusterView view = MakeView(positions, sinks, alive, energy);

  StaticClustering protocol(2);
  util::Rng rng(7);
  const ClusterAssignment first = protocol.Elect(0, view, rng);
  ASSERT_EQ(first.heads.size(), 2u);
  const ClusterAssignment later = protocol.Elect(5, view, rng);
  EXPECT_EQ(first.heads, later.heads);  // static: no rotation

  // Kill one head: repair keeps the survivor only.
  alive[first.heads[0]] = false;
  const ClusterAssignment repaired = protocol.Repair(later, 5, view, rng);
  ASSERT_EQ(repaired.heads.size(), 1u);
  EXPECT_EQ(repaired.heads[0], first.heads[1]);

  // Kill both: members stay unclustered — the static failure mode.
  alive[first.heads[1]] = false;
  const ClusterAssignment stranded = protocol.Repair(repaired, 6, view, rng);
  EXPECT_TRUE(stranded.heads.empty());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (alive[i]) {
      EXPECT_EQ(stranded.head_of[i], ClusterAssignment::kUnclustered);
    }
  }
}

// ---------------------------------------------------------------------
// Grid-accelerated head assignment (ISSUE 7): the ring-search path must
// match the all-pairs oracle member for member, including tie-breaks.

void ExpectAssignmentsEqual(const ClusterAssignment& grid,
                            const ClusterAssignment& oracle,
                            const char* what) {
  EXPECT_EQ(grid.heads, oracle.heads) << what;
  ASSERT_EQ(grid.head_of.size(), oracle.head_of.size()) << what;
  for (std::size_t i = 0; i < grid.head_of.size(); ++i) {
    EXPECT_EQ(grid.head_of[i], oracle.head_of[i]) << what << ": node " << i;
  }
}

/// The head in `heads` (sorted) nearest to `p`, ties to the lowest.
std::size_t BruteNearestHead(const std::vector<std::size_t>& heads,
                             const std::vector<node::Position>& positions,
                             const node::Position& p) {
  std::size_t best = ClusterAssignment::kUnclustered;
  double best2 = std::numeric_limits<double>::infinity();
  for (std::size_t h : heads) {
    const double d2 = node::Distance2(p, positions[h]);
    if (d2 < best2) {
      best2 = d2;
      best = h;
    }
  }
  return best;
}

/// The lazy repair contract: `lazy` lists the oracle's heads, its index
/// (when built) holds exactly those heads, and every alive node's
/// *resolved* head is the full-reassign oracle's.  Dead nodes' rows are
/// never read.  Resolution runs on a copy, so `lazy` keeps its stale
/// rows for later steps of the chain.
void ExpectResolvesLikeOracle(const ClusterAssignment& lazy,
                              const ClusterAssignment& oracle,
                              const std::vector<bool>& alive,
                              const std::vector<node::Position>& positions,
                              const char* what) {
  EXPECT_EQ(lazy.heads, oracle.heads) << what;
  ASSERT_EQ(lazy.head_of.size(), oracle.head_of.size()) << what;
  if (lazy.index) {
    EXPECT_EQ(lazy.index->Size(), lazy.heads.size()) << what;
    for (std::size_t h : lazy.heads) {
      EXPECT_EQ(lazy.index->Head(lazy.index->Nearest(positions[h])),
                BruteNearestHead(lazy.heads, positions, positions[h]))
          << what << ": index query at head " << h;
    }
  }
  ClusterAssignment probe = lazy;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (!alive[i]) continue;
    EXPECT_EQ(probe.ResolveHead(i, positions), oracle.head_of[i])
        << what << ": node " << i;
  }
}

TEST(HeadAssignment, GridMatchesAllPairsOverRandomKillAndElectionSequences) {
  // Random deployments, random head sets of every size (1 head through
  // ~a third of the nodes, well past the small-k all-pairs dispatch
  // cutoff), random interleaved member/head kills.  After every kill the
  // two strategies must agree exactly — argmin and lowest-head-index
  // tie-break both.
  util::Rng rng(20080101);
  for (int seq = 0; seq < 60; ++seq) {
    const std::size_t n = 6 + (rng() % 120);
    const double extent = 50.0 + util::UniformDouble(rng) * 400.0;
    std::vector<node::Position> positions;
    for (std::size_t i = 0; i < n; ++i) {
      // Snap half the sequences to a coarse lattice so exact distance
      // ties (equidistant heads) actually occur.
      double x = util::UniformDouble(rng) * extent;
      double y = util::UniformDouble(rng) * extent;
      if (seq % 2 == 0) {
        x = std::floor(x / 20.0) * 20.0;
        y = std::floor(y / 20.0) * 20.0;
      }
      positions.push_back({x, y});
    }
    const std::vector<node::Position> sinks = {{0.0, 0.0}};
    std::vector<bool> alive(n, true);
    std::vector<double> energy(n, 1.0);
    ClusterView view = MakeView(positions, sinks, alive, energy);

    for (int round = 0; round < 6; ++round) {
      // Fresh random head set over the survivors each "election".
      std::vector<std::size_t> heads;
      const std::size_t want = 1 + (rng() % (1 + n / 3));
      for (std::size_t i = 0; i < n && heads.size() < want; ++i) {
        if (alive[i] && (rng() % 3) == 0) heads.push_back(i);
      }
      if (heads.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (alive[i]) {
            heads.push_back(i);
            break;
          }
        }
      }
      if (heads.empty()) break;  // everyone dead
      ExpectAssignmentsEqual(AssignToNearestHeadGrid(view, heads),
                             AssignToNearestHeadAllPairs(view, heads),
                             "direct grid vs all-pairs");
      // The dispatcher must agree with the oracle either way.
      view.all_pairs = false;
      const ClusterAssignment via_grid = AssignToNearestHead(view, heads);
      view.all_pairs = true;
      const ClusterAssignment via_oracle = AssignToNearestHead(view, heads);
      ExpectAssignmentsEqual(via_grid, via_oracle, "dispatcher");
      view.all_pairs = false;
      // Kill a couple of random survivors before the next election.
      for (int k = 0; k < 2; ++k) {
        const std::size_t victim = rng() % n;
        alive[victim] = false;
      }
    }
  }
}

TEST(HeadAssignment, IncrementalRepairMatchesFullReassignAcrossChainedDeaths) {
  // The simulator repairs only on *head* deaths, and an in-place repair
  // only drops the dead head: its members' rows keep naming it until
  // they are read, and each repair's output feeds the next (induction
  // through the chain).  Run two protocol instances in lockstep: the
  // grid instance repairs in place (RepairInPlace over the head index),
  // the all-pairs instance does the faithful full re-assignment.  After
  // every election and every repair, every alive node's resolved head
  // must be the oracle's.
  util::Rng rng(7072008);
  for (int seq = 0; seq < 40; ++seq) {
    const std::size_t n = 8 + (rng() % 100);
    const double extent = 60.0 + util::UniformDouble(rng) * 300.0;
    std::vector<node::Position> positions;
    for (std::size_t i = 0; i < n; ++i) {
      double x = util::UniformDouble(rng) * extent;
      double y = util::UniformDouble(rng) * extent;
      if (seq % 2 == 0) {  // lattice-snap half the sequences: exact ties
        x = std::floor(x / 20.0) * 20.0;
        y = std::floor(y / 20.0) * 20.0;
      }
      positions.push_back({x, y});
    }
    const std::vector<node::Position> sinks = {{0.0, 0.0}};
    std::vector<bool> alive(n, true);
    std::vector<double> energy(n, 1.0);
    const ClusterView grid_view = MakeView(positions, sinks, alive, energy);
    ClusterView oracle_view = grid_view;
    oracle_view.all_pairs = true;

    LeachClustering grid_proto(0.25);
    LeachClustering oracle_proto(0.25);
    util::Rng grid_rng(900 + seq);
    util::Rng oracle_rng(900 + seq);
    ClusterAssignment cur_g = grid_proto.Elect(0, grid_view, grid_rng);
    ClusterAssignment cur_o = oracle_proto.Elect(0, oracle_view, oracle_rng);
    ExpectAssignmentsEqual(cur_g, cur_o, "initial election");

    for (int step = 0; step < 30; ++step) {
      // Every third kill targets a head (all listed heads are alive:
      // head deaths repair immediately, member deaths never demote);
      // the rest hit random members and stay unrepaired.
      std::size_t victim = ClusterAssignment::kUnclustered;
      if (step % 3 == 0 && !cur_g.heads.empty()) {
        victim = cur_g.heads[rng() % cur_g.heads.size()];
      } else {
        for (std::size_t attempt = 0; attempt < 4 * n; ++attempt) {
          const std::size_t c = rng() % n;
          if (alive[c]) {
            victim = c;
            break;
          }
        }
      }
      if (victim == ClusterAssignment::kUnclustered) break;
      alive[victim] = false;
      if (cur_g.IsHead(victim)) {
        std::vector<std::uint32_t> unused;
        if (cur_g.heads.size() > 1) {
          // A survivor exists: the in-place path must take it, drop the
          // dead head, clear its row and touch nothing else.
          const std::vector<std::size_t> before = cur_g.head_of;
          ASSERT_TRUE(
              grid_proto.RepairInPlace(cur_g, victim, grid_view, unused));
          ASSERT_TRUE(cur_g.index.has_value());
          EXPECT_EQ(cur_g.head_of[victim], ClusterAssignment::kUnclustered);
          for (std::size_t i = 0; i < n; ++i) {
            if (i != victim) {
              EXPECT_EQ(cur_g.head_of[i], before[i]) << i;
            }
          }
        } else {
          // Last head standing: RepairInPlace declines so the protocol's
          // no-survivor policy (a fresh Elect) can run via Repair.
          EXPECT_FALSE(
              grid_proto.RepairInPlace(cur_g, victim, grid_view, unused));
          cur_g = grid_proto.Repair(cur_g, 1, grid_view, grid_rng);
        }
        EXPECT_TRUE(unused.empty());
        cur_o = oracle_proto.Repair(cur_o, 1, oracle_view, oracle_rng);
        ExpectResolvesLikeOracle(cur_g, cur_o, alive, positions,
                                 "chained repair");
      }
      // Members that transmit now read (and so re-attach) their rows;
      // the rest stay stale into the next deaths.
      for (std::size_t i = 0; i < n; ++i) {
        if (alive[i] && rng() % 3 == 0) (void)cur_g.ResolveHead(i, positions);
      }
    }
  }

  // One cascade-sized input: 2,400 lattice nodes (exact distance ties
  // everywhere) with 5% heads, killed in order of distance from the far
  // corner, so each dead head's members join the next casualty and
  // never-read rows go stale through long chains of deaths.  Before
  // each head death, three of its members crash; they recover after it,
  // their rows still naming the dead head.  Run once from a grid
  // election (index kept) and once from an all-pairs one (index built
  // by the first repair).
  const std::size_t cols = 60;
  const std::size_t rows = 40;
  const std::vector<node::Position> positions =
      node::MakeGrid(cols, rows, 10.0);
  const std::size_t n = positions.size();
  const node::Position corner{10.0 * cols, 10.0 * rows};
  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 20 == 0) heads.push_back(i);
  }
  std::vector<std::size_t> kill_order = heads;
  std::stable_sort(kill_order.begin(), kill_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return node::Distance2(positions[a], corner) <
                            node::Distance2(positions[b], corner);
                   });
  const std::vector<node::Position> sinks = {{0.0, 0.0}};
  const std::vector<double> energy(n, 1.0);
  for (const bool from_grid : {true, false}) {
    std::vector<bool> alive(n, true);
    const ClusterView view = MakeView(positions, sinks, alive, energy);
    ClusterView oracle_view = view;
    oracle_view.all_pairs = true;
    LeachClustering proto(0.05);
    util::Rng unused_rng(1);
    ClusterAssignment cur = from_grid
                                ? AssignToNearestHeadGrid(view, heads)
                                : AssignToNearestHeadAllPairs(view, heads);
    ASSERT_EQ(cur.index.has_value(), from_grid);
    ClusterAssignment oracle = AssignToNearestHeadAllPairs(view, heads);
    std::size_t revived = 0;
    std::size_t stale_revived = 0;
    for (std::size_t k = 0; k + 2 < kill_order.size(); ++k) {
      const std::size_t victim = kill_order[k];
      ASSERT_TRUE(cur.IsHead(victim));
      // The victim's first three members (by resolved head) crash.
      std::vector<std::size_t> crashed;
      ClusterAssignment probe = cur;
      for (std::size_t m = 0; m < n && crashed.size() < 3; ++m) {
        if (alive[m] && m != victim &&
            probe.ResolveHead(m, positions) == victim) {
          crashed.push_back(m);
        }
      }
      for (std::size_t m : crashed) alive[m] = false;
      alive[victim] = false;
      std::vector<std::uint32_t> unused;
      ASSERT_TRUE(proto.RepairInPlace(cur, victim, view, unused));
      oracle = proto.Repair(oracle, 0, oracle_view, unused_rng);
      ExpectResolvesLikeOracle(cur, oracle, alive, positions,
                               "cascade repair");
      ASSERT_TRUE(cur.index.has_value());

      // They recover as members with their rows untouched: each resolves
      // to the head a full re-assignment gives it (and the next repair's
      // oracle re-assigns it in full).
      probe = cur;
      for (std::size_t m : crashed) {
        alive[m] = true;
        if (!cur.IsHead(cur.head_of[m])) ++stale_revived;
        EXPECT_EQ(probe.ResolveHead(m, positions),
                  BruteNearestHead(oracle.heads, positions, positions[m]))
            << "revived member " << m;
      }
      revived += crashed.size();
    }
    EXPECT_GT(revived, 100u);
    EXPECT_GT(stale_revived, 0u)
        << "some revived member's row must still name a dead head";
  }
}

TEST(HeadAssignment, HeadsOnCellBoundariesAndCoincidentHeads) {
  // 25 heads on an exact lattice: the compacted-extent cell size puts
  // every head precisely on a cell boundary.  Members sit on boundaries
  // and midpoints; two heads coincide so the lowest-index tie-break is
  // exercised at zero distance too.
  std::vector<node::Position> positions;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      positions.push_back({x * 25.0, y * 25.0});
    }
  }
  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < 25; ++i) heads.push_back(i);
  // Members between the heads, some equidistant to 2 or 4 heads.
  positions.push_back({12.5, 12.5});
  positions.push_back({12.5, 0.0});
  positions.push_back({50.0, 37.5});
  positions.push_back({100.0, 100.0});  // coincides with head 24
  positions.push_back({-40.0, 130.0});  // outside the heads' bounding box
  const std::vector<node::Position> sinks = {{0.0, 0.0}};
  const std::vector<bool> alive(positions.size(), true);
  const std::vector<double> energy(positions.size(), 1.0);
  const ClusterView view = MakeView(positions, sinks, alive, energy);
  ExpectAssignmentsEqual(AssignToNearestHeadGrid(view, heads),
                         AssignToNearestHeadAllPairs(view, heads),
                         "lattice boundary");

  // Coincident heads: both see identical distances everywhere; every
  // tie must resolve to the lower head index in both strategies.
  std::vector<node::Position> twin_pos = positions;
  twin_pos[7] = twin_pos[6];  // head 7 sits exactly on head 6
  const ClusterView twin_view = MakeView(twin_pos, sinks, alive, energy);
  const ClusterAssignment tg = AssignToNearestHeadGrid(twin_view, heads);
  const ClusterAssignment ta = AssignToNearestHeadAllPairs(twin_view, heads);
  ExpectAssignmentsEqual(tg, ta, "coincident heads");
}

TEST(HeadAssignment, EmptyHeadsAndAllHeadsDeadFallback) {
  // No heads at all: every alive node stays kUnclustered in both modes.
  const std::vector<node::Position> positions = node::MakeGrid(4, 3, 10.0);
  const std::vector<node::Position> sinks = {{0.0, 0.0}};
  std::vector<bool> alive(positions.size(), true);
  std::vector<double> energy(positions.size(), 1.0);
  ClusterView view = MakeView(positions, sinks, alive, energy);
  const ClusterAssignment none = AssignToNearestHead(view, {});
  EXPECT_TRUE(none.heads.empty());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(none.head_of[i], ClusterAssignment::kUnclustered);
  }

  // All current heads dead: the default Repair falls back to a fresh
  // election for the round, and the survivors end up clustered again
  // under the grid assignment path.
  LeachClustering protocol(0.3);
  util::Rng rng(11);
  const ClusterAssignment first = protocol.Elect(0, view, rng);
  ASSERT_FALSE(first.heads.empty());
  for (const std::size_t h : first.heads) {
    alive[h] = false;
    energy[h] = 0.0;
  }
  const ClusterAssignment repaired = protocol.Repair(first, 0, view, rng);
  ASSERT_FALSE(repaired.heads.empty());
  for (const std::size_t h : repaired.heads) {
    EXPECT_TRUE(alive[h]) << "re-elected head " << h << " must be alive";
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (alive[i]) {
      EXPECT_NE(repaired.head_of[i], ClusterAssignment::kUnclustered) << i;
    }
  }
}

TEST(ClusteredSim, HeadDeathTriggersReelectionAndDeliveryContinues) {
  // One never-ending round: every election beyond the initial one can
  // only come from a head-death repair.
  NetSimConfig cfg = LeachConfig(3, 2, 0.01, /*round_s=*/1.0e9);
  cfg.network.node.cpu.arrival_rate = 10.0;
  cfg.network.node.cpu.service_rate = 100.0;
  cfg.horizon_s = 400.0;

  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model), util::Rng(17));
  const NetSimReport report = sim.Run();

  ASSERT_TRUE(std::isfinite(report.first_death_s));
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_GT(report.elections, report.rounds)
      << "a cluster-head death inside the round must trigger a repair "
         "election";
  std::set<std::size_t> heads;
  std::uint64_t delivered_by_late_sources = 0;
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    if (report.nodes[i].head_elections > 0) heads.insert(i);
    if (report.nodes[i].death_s > report.first_death_s) {
      delivered_by_late_sources += report.nodes[i].delivered;
    }
  }
  EXPECT_GE(heads.size(), 2u)
      << "the repair election must seat a different node as head";
  EXPECT_GT(delivered_by_late_sources, 0u)
      << "nodes surviving the first head must keep delivering";
}

/// LEACH that declines every in-place repair, so each head death takes
/// the full-rebuild fallback.
class NoInPlaceLeach final : public ClusteringProtocol {
 public:
  const char* Name() const noexcept override { return "leach"; }
  ClusterAssignment Elect(std::size_t round, const ClusterView& view,
                          util::Rng& rng) override {
    return inner_.Elect(round, view, rng);
  }
  bool RepairInPlace(ClusterAssignment&, std::size_t, const ClusterView&,
                     std::vector<std::uint32_t>&) override {
    return false;
  }

 private:
  LeachClustering inner_{0.2};
};

TEST(ClusteredSim, DeclinedInPlaceRepairIsTimedOnce) {
  // Every mid-round head death is declined in place and then elected by
  // the fallback: the election stopwatch must count that one election,
  // not the declined attempt too.
  NetSimConfig cfg = LeachConfig(5, 4, 0.01, /*round_s=*/1.0e9);
  cfg.network.node.cpu.arrival_rate = 10.0;
  cfg.network.node.cpu.service_rate = 100.0;
  cfg.horizon_s = 400.0;
  cfg.cluster.factory = [] { return std::make_unique<NoInPlaceLeach>(); };
  cfg.obs.metrics = true;

  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model), util::Rng(17));
  const NetSimReport report = sim.Run();

  ASSERT_GT(report.elections, report.rounds + 1)
      << "the test needs mid-round head deaths";
  const obs::MetricsSnapshot& m = report.metrics;
  EXPECT_EQ(m.timings.at("netsim.cluster.election_wall_s").calls,
            m.counters.at("netsim.cluster.elections"));
  EXPECT_EQ(m.counters.at("netsim.cluster.elections"), report.elections);
}

TEST(ClusteredSim, AggregationFoldsMemberSamples) {
  NetSimConfig cfg = LeachConfig(3, 2, 1.0, /*round_s=*/50.0);
  cfg.horizon_s = 200.0;  // big battery: nobody dies, pure bookkeeping

  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model), util::Rng(23));
  const NetSimReport report = sim.Run();

  EXPECT_FALSE(std::isfinite(report.first_death_s));
  EXPECT_GT(report.packets.generated, 0u);
  EXPECT_GT(report.packets.delivered, 0u);
  // Delivered + dropped + still-buffered can never exceed generated.
  EXPECT_LE(report.packets.delivered + report.packets.TotalDropped(),
            report.packets.generated);
  // Heads really aggregated member samples.
  std::uint64_t aggregated = 0;
  for (const NodeSimStats& n : report.nodes) aggregated += n.aggregated;
  EXPECT_GT(aggregated, 0u);
  // Nearly everything should arrive on a healthy network.
  EXPECT_GT(report.DeliveryRatio(), 0.95);
  // Initial election plus one per boundary (the horizon instant counts).
  EXPECT_EQ(report.rounds, 5u);
}

TEST(ClusteredSim, ReplicationsIndependentOfThreadCount) {
  NetSimConfig cfg = LeachConfig(3, 3, 0.02, /*round_s=*/20.0);
  cfg.horizon_s = 150.0;

  const core::MarkovCpuModel model;
  ReplicationConfig serial;
  serial.replications = 4;
  serial.seed = 99;
  serial.threads = 1;
  serial.keep_reports = true;
  ReplicationConfig parallel = serial;
  parallel.threads = 4;

  const ReplicationSummary rs = RunReplications(cfg, model, serial);
  const ReplicationSummary rp = RunReplications(cfg, model, parallel);
  ASSERT_EQ(rs.reports.size(), rp.reports.size());
  for (std::size_t r = 0; r < rs.reports.size(); ++r) {
    EXPECT_EQ(rs.reports[r].packets.delivered, rp.reports[r].packets.delivered)
        << "replication " << r;
    EXPECT_EQ(rs.reports[r].events, rp.reports[r].events);
    EXPECT_EQ(rs.reports[r].elections, rp.reports[r].elections);
    EXPECT_DOUBLE_EQ(rs.reports[r].first_death_s, rp.reports[r].first_death_s);
  }
  EXPECT_DOUBLE_EQ(rs.first_death_s.ci.mean, rp.first_death_s.ci.mean);
}

// The cluster-ablation acceptance claim, pinned at test scale: with the
// documented configuration family (grid deployment, small batteries,
// frequent rounds) LEACH-style rotation outlives static heads on
// first-node-death.
TEST(ClusteredSim, LeachRotationBeatsStaticHeadsOnFirstDeath) {
  NetSimConfig leach = GridConfig(5, 5, 0.02);
  leach.cluster.protocol = ClusterProtocolKind::kLeach;
  leach.cluster.head_fraction = 0.1;
  leach.cluster.round_s = 15.0;
  leach.cluster.aggregation = 4;
  leach.horizon_s = 1000.0;

  NetSimConfig still = leach;
  still.cluster.protocol = ClusterProtocolKind::kStatic;

  const core::MarkovCpuModel model;
  ReplicationConfig rep;
  rep.replications = 6;
  rep.seed = 2008;
  rep.threads = 1;

  const ReplicationSummary leach_sum = RunReplications(leach, model, rep);
  const ReplicationSummary still_sum = RunReplications(still, model, rep);
  ASSERT_EQ(leach_sum.first_death_s.observed, rep.replications);
  ASSERT_EQ(still_sum.first_death_s.observed, rep.replications);
  EXPECT_GT(leach_sum.first_death_s.ci.mean,
            1.15 * still_sum.first_death_s.ci.mean)
      << "rotating the head role must spread the uplink cost";
}

// Heterogeneous counterpart of the analytic-convergence anchor: a chain
// whose bottleneck relay carries a triple battery must match the
// per-node analytic estimate.
TEST(HeterogeneousSim, FirstDeathMatchesPerNodeAnalyticEstimate) {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 15.0;
  cfg.network.node.cpu.service_rate = 150.0;
  cfg.network.node.cpu_power = TinyCpuTable();
  cfg.network.node.sample_bits = 2048;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 0.3;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 60.0;
  cfg.positions = {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}};
  cfg.rerouting = false;
  cfg.stop_at_first_death = true;
  cfg.horizon_s = 20000.0;

  NodeClass standard;
  standard.name = "standard";
  standard.battery_mah = cfg.network.node.battery_mah;
  standard.radio = cfg.network.node.radio;
  NodeClass big = standard;
  big.name = "big";
  big.battery_mah = 3.0 * standard.battery_mah;
  cfg.classes = {standard, big};
  cfg.node_class = {"big", "standard", "standard"};  // big bottleneck relay

  const core::MarkovCpuModel model;
  const node::NetworkReport analytic =
      node::Network(cfg.network, cfg.positions)
          .Evaluate(model, PerNodeConfigs(cfg));

  ReplicationConfig rep;
  rep.replications = 32;
  rep.seed = 2008;
  const ReplicationSummary summary = RunReplications(cfg, model, rep);
  ASSERT_EQ(summary.first_death_s.observed, rep.replications);
  const util::ConfidenceInterval& ci = summary.first_death_s.ci;
  EXPECT_TRUE(ci.Contains(analytic.network_lifetime_seconds))
      << "simulated " << ci.mean << " +- " << ci.half_width
      << " s vs analytic " << analytic.network_lifetime_seconds << " s";
  // The tripled battery must actually move the bottleneck: the analytic
  // homogeneous lifetime has to be shorter.
  const node::NetworkReport homogeneous =
      node::Network(cfg.network, cfg.positions).Evaluate(model);
  EXPECT_GT(analytic.network_lifetime_seconds,
            1.5 * homogeneous.network_lifetime_seconds);
}

}  // namespace
}  // namespace wsn::netsim
