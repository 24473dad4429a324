// Fault-injection engine: randomized crash/recover churn pinning
// RoutingTable::RepairAfterRecovery (and RepairAfterDeath) to the full
// recompute after every event; end-to-end simulator equivalence with the
// oracle twin under churn, flat and clustered; scripted partition-heal
// semantics; exponential-backoff
// timing; the packet-conservation invariant; jam and sink-outage
// observables; fault-plan determinism and config validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "energy/power_state.hpp"
#include "netsim/cluster.hpp"
#include "netsim/fault.hpp"
#include "netsim/mac.hpp"
#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "netsim/routing.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectTablesEqual(const RoutingTable& a, const RoutingTable& b,
                       const char* what) {
  ASSERT_EQ(a.Size(), b.Size());
  EXPECT_EQ(a.UnroutedAlive(), b.UnroutedAlive()) << what;
  for (std::size_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(a.NextHop(i), b.NextHop(i)) << what << ": node " << i;
    EXPECT_DOUBLE_EQ(a.HopDistance(i), b.HopDistance(i))
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

// The randomized churn-equivalence suite: 210 random chained
// crash/recover schedules across several sizes and sink counts.  After
// EVERY event — crash or recovery — the incrementally maintained table
// must match the full recompute, route for route and counter for counter.
TEST(FaultChurnEquivalence, RecoveryRepairMatchesRecomputeOverChurn) {
  util::Rng rng(4242);
  const std::size_t kSequences = 210;
  for (std::size_t seq = 0; seq < kSequences; ++seq) {
    const std::size_t n = 2 + (rng() % 60);
    const double extent = 100.0 + util::UniformDouble(rng) * 200.0;
    const double hop = 30.0 + util::UniformDouble(rng) * 40.0;
    util::Rng topo_rng(rng());
    const std::vector<node::Position> pos =
        RandomDeployment(topo_rng, n, extent);

    std::vector<node::Position> sinks{{0.0, 0.0}};
    if (seq % 3 == 1) sinks.push_back({extent, extent});
    if (seq % 3 == 2) sinks.push_back({extent, 0.0});

    RoutingTable incremental(sinks, hop, pos);
    RoutingTable full(sinks, hop, pos);

    std::vector<bool> alive(n, true);
    std::vector<std::uint32_t> down;
    std::size_t alive_count = n;
    // Chained churn: each step crashes a random alive node or revives a
    // random down one, biased toward crashes so the down set grows and
    // recoveries happen from genuinely degraded states.
    const std::size_t steps = 2 * n;
    for (std::size_t step = 0; step < steps; ++step) {
      const bool can_crash = alive_count > 1;
      const bool crash =
          !down.empty() ? (can_crash && rng() % 3 != 0) : true;
      if (crash && !can_crash) continue;
      if (crash) {
        std::size_t victim = rng() % n;
        while (!alive[victim]) victim = (victim + 1) % n;
        alive[victim] = false;
        --alive_count;
        down.push_back(static_cast<std::uint32_t>(victim));
        incremental.RepairAfterDeath(victim, alive);
      } else {
        const std::size_t pick = rng() % down.size();
        const std::size_t revived = down[pick];
        down[pick] = down.back();
        down.pop_back();
        alive[revived] = true;
        ++alive_count;
        incremental.RepairAfterRecovery(revived, alive);
      }
      full.Recompute(alive);
      ExpectTablesEqual(incremental, full, "incremental vs full");
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "divergence in sequence " << seq << " after step " << step;
      }
    }
  }
}

TEST(FaultChurnEquivalence, RecoveryOfIsolatedAndGatewayNodes) {
  // Hand-built line: sink - a - b - c, hop 40, spacing 30.  Killing and
  // reviving the middle node must exactly restore the original table.
  const std::vector<node::Position> pos{{30.0, 0.0}, {60.0, 0.0},
                                        {90.0, 0.0}};
  RoutingTable table({0.0, 0.0}, 40.0, pos);
  const RoutingTable pristine({0.0, 0.0}, 40.0, pos);
  std::vector<bool> alive(3, true);

  alive[1] = false;
  table.RepairAfterDeath(1, alive);
  EXPECT_EQ(table.NextHop(2), RoutingTable::kNoRoute);
  EXPECT_EQ(table.UnroutedAlive(), 1u);

  alive[1] = true;
  table.RepairAfterRecovery(1, alive);
  ExpectTablesEqual(table, pristine, "revived gateway");
  EXPECT_EQ(table.UnroutedAlive(), 0u);
}

// ---------------------------------------------------------------------
// Fault plan generation: determinism and validation.

TEST(FaultPlan, DeterministicPerSeedAndSorted) {
  FaultConfig cfg;
  cfg.crash_rate_hz = 0.002;
  cfg.mean_outage_s = 120.0;
  cfg.jam_windows = 3;
  cfg.jam_radius_m = 50.0;
  cfg.jam_duration_s = 200.0;
  cfg.jam_p_loss = 0.4;
  cfg.sink_outages = 2;
  cfg.sink_outage_s = 150.0;
  util::Rng topo(7);
  const std::vector<node::Position> pos = RandomDeployment(topo, 40, 300.0);

  const FaultPlan a = FaultPlan::Generate(cfg, pos, 2, 5000.0, util::Rng(9));
  const FaultPlan b = FaultPlan::Generate(cfg, pos, 2, 5000.0, util::Rng(9));
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.events.empty());
  for (std::size_t k = 0; k < a.events.size(); ++k) {
    EXPECT_EQ(a.events[k].t, b.events[k].t);
    EXPECT_EQ(a.events[k].kind, b.events[k].kind);
    EXPECT_EQ(a.events[k].node, b.events[k].node);
    if (k > 0) {
      EXPECT_LE(a.events[k - 1].t, a.events[k].t);
    }
  }
  ASSERT_EQ(a.jams.size(), 3u);
  ASSERT_EQ(a.sink_outages.size(), 2u);
  EXPECT_EQ(a.sink_outages[0].sink, 0u);  // round-robin over the sink set
  EXPECT_EQ(a.sink_outages[1].sink, 1u);
  for (std::size_t k = 0; k < a.jams.size(); ++k) {
    EXPECT_EQ(a.jams[k].start_s, b.jams[k].start_s);
    EXPECT_EQ(a.jams[k].center.x, b.jams[k].center.x);
  }

  const FaultPlan other =
      FaultPlan::Generate(cfg, pos, 2, 5000.0, util::Rng(10));
  bool differs = other.events.size() != a.events.size();
  for (std::size_t k = 0; !differs && k < a.events.size(); ++k) {
    differs = other.events[k].t != a.events[k].t;
  }
  EXPECT_TRUE(differs) << "different seeds must give different plans";
}

TEST(FaultPlan, ScriptedEventsMergeSortedAndValidate) {
  FaultConfig cfg;
  cfg.scripted = {{300.0, FaultEventKind::kCrash, 1},
                  {100.0, FaultEventKind::kCrash, 0},
                  {500.0, FaultEventKind::kRecover, 1}};
  const std::vector<node::Position> pos{{10.0, 0.0}, {20.0, 0.0}};
  const FaultPlan plan =
      FaultPlan::Generate(cfg, pos, 1, 1000.0, util::Rng(1));
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].node, 0u);  // sorted by time
  EXPECT_EQ(plan.events[1].node, 1u);
  EXPECT_EQ(plan.events[2].kind, FaultEventKind::kRecover);

  FaultConfig bad;
  bad.scripted = {{100.0, FaultEventKind::kCrash, 7}};
  EXPECT_THROW(FaultPlan::Generate(bad, pos, 1, 1000.0, util::Rng(1)),
               util::InvalidArgument);
}

TEST(FaultConfig, ValidationRejectsInconsistentKnobs) {
  {
    FaultConfig c;
    c.crash_rate_hz = 0.01;  // crashes without an outage length
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  {
    FaultConfig c;
    c.crash_rate_hz = -1.0;
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  {
    FaultConfig c;
    c.jam_windows = 1;  // jam without radius/duration/p_loss
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  {
    FaultConfig c;
    c.jam_windows = 1;
    c.jam_radius_m = 10.0;
    c.jam_duration_s = 10.0;
    c.jam_p_loss = 1.5;
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  {
    FaultConfig c;
    c.sink_outages = 1;  // outages without a window length
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  {
    FaultConfig c;
    c.scripted = {{-1.0, FaultEventKind::kCrash, 0}};
    EXPECT_THROW(c.Validate(), util::InvalidArgument);
  }
  FaultConfig ok;
  EXPECT_FALSE(ok.Enabled());
  EXPECT_NO_THROW(ok.Validate());
}

TEST(FaultEngine, JamWindowsCombineAndRespectBounds) {
  FaultPlan plan;
  plan.jams.push_back({{50.0, 50.0}, 30.0, 100.0, 200.0, 0.5});
  plan.jams.push_back({{60.0, 50.0}, 30.0, 150.0, 250.0, 0.5});
  const FaultEngine engine(std::move(plan));

  const node::Position inside{55.0, 50.0};  // covered by both discs
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss(inside, 50.0), 0.0);   // too early
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss(inside, 120.0), 0.5);  // first only
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss(inside, 180.0), 0.75);  // overlap
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss(inside, 220.0), 0.5);  // second only
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss(inside, 250.0), 0.0);  // end excl.
  EXPECT_DOUBLE_EQ(engine.JamExtraLoss({500.0, 500.0}, 180.0), 0.0);
}

TEST(FaultEngine, SinkDownWindowsAreHalfOpenAndPerSink) {
  FaultPlan plan;
  plan.sink_outages.push_back({0, 100.0, 200.0});
  const FaultEngine engine(std::move(plan));
  EXPECT_FALSE(engine.SinkDown(0, 99.9));
  EXPECT_TRUE(engine.SinkDown(0, 100.0));
  EXPECT_TRUE(engine.SinkDown(0, 199.9));
  EXPECT_FALSE(engine.SinkDown(0, 200.0));
  EXPECT_FALSE(engine.SinkDown(1, 150.0));  // other sinks unaffected
}

// ---------------------------------------------------------------------
// End-to-end simulator churn equivalence.

NetSimConfig ChurnConfig(std::size_t cols, std::size_t rows) {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 2.0;
  cfg.network.node.cpu.service_rate = 20.0;
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(cols, rows, 15.0);
  cfg.horizon_s = 1200.0;
  cfg.faults.crash_rate_hz = 0.001;
  cfg.faults.mean_outage_s = 150.0;
  cfg.faults.jam_windows = 2;
  cfg.faults.jam_radius_m = 45.0;
  cfg.faults.jam_duration_s = 200.0;
  cfg.faults.jam_p_loss = 0.5;
  cfg.faults.sink_outages = 1;
  cfg.faults.sink_outage_s = 150.0;
  return cfg;
}

NetSimReport RunOne(const NetSimConfig& cfg, std::uint64_t seed) {
  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model),
                       util::Rng(seed).MakeStream(0));
  return sim.Run();
}

/// A LEACH death cascade with crash churn on the netsim-scale node: 400
/// nodes 150 m apart, so heads uplink over kilometres, drain within a
/// round and hand their clusters on, one head death after another.
NetSimConfig CascadeConfig(double wakeup_interval_s) {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 0.01;
  cfg.network.node.cpu.service_rate = 1.0;
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 50.0;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(20, 20, 150.0);
  cfg.horizon_s = 2000.0;
  cfg.mac.wakeup_interval_s = wakeup_interval_s;
  cfg.faults.crash_rate_hz = 2e-4;
  cfg.faults.mean_outage_s = 150.0;
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.head_fraction = 0.05;
  cfg.cluster.round_s = 100.0;
  cfg.cluster.aggregation = 4;
  return cfg;
}

/// `cfg` run as its oracle twin.
NetSimReport RunOracle(NetSimConfig cfg, std::uint64_t seed) {
  cfg.oracle = true;
  return RunOne(cfg, seed);
}

TEST(FaultSimulator, ChurnMatchesOracle) {
  const NetSimConfig cfg = ChurnConfig(8, 6);
  const NetSimReport inc = RunOne(cfg, 321);
  EXPECT_GT(inc.crashes, 0u) << "test must exercise churn";
  EXPECT_GT(inc.recoveries, 0u);
  EXPECT_TRUE(inc.Conserved());
  EXPECT_EQ(FirstReportDifference(inc, RunOracle(cfg, 321)), "");
}

TEST(FaultSimulator, ClusteredChurnMatchesOracle) {
  NetSimConfig cfg = ChurnConfig(8, 6);
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.head_fraction = 0.15;
  cfg.cluster.round_s = 200.0;
  cfg.cluster.aggregation = 4;

  const NetSimReport grid = RunOne(cfg, 654);
  EXPECT_GT(grid.crashes, 0u) << "test must exercise churn";
  EXPECT_GT(grid.recoveries, 0u);
  EXPECT_TRUE(grid.Conserved());
  EXPECT_EQ(FirstReportDifference(grid, RunOracle(cfg, 654)), "");

  // A death cascade, with and without low-power listening: under LPL the
  // receiver a transmission starts toward sets its timing, so a member
  // payload reaching the wrong head shows in every later field.
  for (const double wakeup : {0.0, 0.5}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const NetSimConfig cascade = CascadeConfig(wakeup);
      const NetSimReport g = RunOne(cascade, seed);
      EXPECT_EQ(g.rounds, 21u);
      EXPECT_GE(g.elections, 90u) << "the cascade must kill heads mid-round";
      EXPECT_GT(g.crashes, 0u);
      EXPECT_TRUE(g.Conserved());
      EXPECT_EQ(FirstReportDifference(g, RunOracle(cascade, seed)), "")
          << "LPL " << wakeup << " s, seed " << seed;
    }
  }

  // Static heads on a larger grid, where crashed heads recover and the
  // next round re-elects the same alive head set.  The head index must
  // follow the assignment it serves: an index that lost a crashed head
  // is wrong for a later round that seats that head again, even though
  // the alive subset of the heads it was built from matches that round.
  // Only scripted crashes, so random churn cannot mask the sequence.
  NetSimConfig st = ChurnConfig(15, 13);
  st.faults.crash_rate_hz = 0.0;
  st.cluster.protocol = ClusterProtocolKind::kStatic;
  st.cluster.static_heads = 12;
  st.cluster.round_s = 200.0;
  st.cluster.aggregation = 4;
  const std::vector<node::Position> sinks = {st.network.sink};
  const std::vector<bool> all_alive(st.positions.size(), true);
  const std::vector<double> energy(st.positions.size(), 1.0);
  ClusterView view;
  view.positions = &st.positions;
  view.sinks = &sinks;
  view.alive = &all_alive;
  view.energy_fraction = &energy;
  util::Rng unused(1);
  std::vector<std::uint32_t> heads;
  for (std::size_t h : StaticClustering(12).Elect(0, view, unused).heads) {
    heads.push_back(static_cast<std::uint32_t>(h));
  }
  ASSERT_EQ(heads.size(), 12u);
  // Head 0 crashes and recovers inside round 0; round 1 re-seats it and
  // then loses its neighbour, head 1, whose orphans may join head 0.
  // Round 2 repeats the pattern with both of them.
  st.faults.scripted = {{50.0, FaultEventKind::kCrash, heads[0]},
                        {120.0, FaultEventKind::kRecover, heads[0]},
                        {250.0, FaultEventKind::kCrash, heads[1]},
                        {300.0, FaultEventKind::kCrash, heads[0]},
                        {350.0, FaultEventKind::kRecover, heads[1]},
                        {380.0, FaultEventKind::kRecover, heads[0]},
                        {450.0, FaultEventKind::kCrash, heads[0]},
                        {460.0, FaultEventKind::kCrash, heads[5]}};
  const NetSimReport st_grid = RunOne(st, 987);
  EXPECT_GE(st_grid.crashes, 5u);
  EXPECT_GE(st_grid.recoveries, 2u);
  EXPECT_GT(st_grid.elections, st_grid.rounds) << "heads must die mid-round";
  EXPECT_TRUE(st_grid.Conserved());
  EXPECT_EQ(FirstReportDifference(st_grid, RunOracle(st, 987)), "");
}

TEST(FaultSimulator, CascadeReattachmentCountIsPinned) {
  // Members of a dead head re-attach when they next transmit; the count
  // of those re-attachments on the cascade input is pinned, so a change
  // to the repair algorithm fails here deterministically.  Replications
  // run on their own streams, so the count ignores the thread count.
  const core::MarkovCpuModel model;
  ReplicationConfig rep;
  rep.replications = 3;
  rep.seed = 2008;
  for (const auto& [wakeup, pinned] :
       {std::pair{0.0, std::uint64_t{1664}},
        std::pair{0.5, std::uint64_t{1541}}}) {
    NetSimConfig cfg = CascadeConfig(wakeup);
    cfg.obs.metrics = true;
    for (const std::size_t threads : {1, 3}) {
      rep.threads = threads;
      const ReplicationSummary summary = RunReplications(cfg, model, rep);
      EXPECT_EQ(summary.metrics.counters.at("netsim.cluster.reattachments"),
                pinned)
          << "LPL " << wakeup << " s, " << threads << " threads";
    }
  }
}

TEST(FaultSimulator, FaultFreeConfigBuildsNoFaultMachinery) {
  // A default FaultConfig must leave the run bit-identical to one built
  // before the fault engine existed: same events, same RNG stream
  // consumption, zero crash bookkeeping.
  NetSimConfig cfg = ChurnConfig(6, 4);
  cfg.faults = FaultConfig{};
  const NetSimReport report = RunOne(cfg, 777);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.recoveries, 0u);
  EXPECT_EQ(report.jam_windows, 0u);
  EXPECT_EQ(report.sink_outage_windows, 0u);
  EXPECT_EQ(report.heal_s, kInf);
  EXPECT_TRUE(report.Conserved());
}

// ---------------------------------------------------------------------
// Scripted churn: partition heal, crash semantics, battery freezing.

NetSimConfig ChainConfig() {
  // sink(0,0) - n0(30,0) - n1(60,0) - n2(90,0), hop 40: node 2 reaches
  // the sink only through node 1 — the cut vertex.
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 2.0;
  cfg.network.node.cpu.service_rate = 20.0;
  cfg.network.node.sample_bits = 512;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = {{30.0, 0.0}, {60.0, 0.0}, {90.0, 0.0}};
  cfg.horizon_s = 600.0;
  return cfg;
}

TEST(FaultSimulator, ScriptedCrashPartitionsAndRecoveryHeals) {
  NetSimConfig cfg = ChainConfig();
  cfg.faults.scripted = {{100.0, FaultEventKind::kCrash, 1},
                         {300.0, FaultEventKind::kRecover, 1}};
  const NetSimReport report = RunOne(cfg, 42);

  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.recoveries, 1u);
  EXPECT_DOUBLE_EQ(report.partition_s, 100.0);  // node 2 lost its route
  EXPECT_DOUBLE_EQ(report.heal_s, 300.0);       // the revival closed it
  // A crash is not a battery death: nothing died, nothing latched.
  EXPECT_EQ(report.first_death_s, kInf);
  EXPECT_TRUE(report.nodes[1].alive);
  EXPECT_DOUBLE_EQ(report.end_s, 600.0);
  EXPECT_TRUE(report.Conserved());

  // Delivery resumes after the heal: against a crash-only twin (no
  // recovery), node 2 must land strictly more samples at the sink.
  NetSimConfig crash_only = ChainConfig();
  crash_only.faults.scripted = {{100.0, FaultEventKind::kCrash, 1}};
  const NetSimReport severed = RunOne(crash_only, 42);
  EXPECT_EQ(severed.heal_s, kInf);
  EXPECT_GT(report.nodes[2].delivered, severed.nodes[2].delivered);
  EXPECT_GT(report.nodes[2].delivered, 0u);
  EXPECT_TRUE(severed.Conserved());
}

TEST(FaultSimulator, StopAtPartitionSemanticsUnchangedUnderFaults) {
  NetSimConfig cfg = ChainConfig();
  cfg.stop_at_partition = true;
  cfg.faults.scripted = {{100.0, FaultEventKind::kCrash, 1},
                         {300.0, FaultEventKind::kRecover, 1}};
  const NetSimReport report = RunOne(cfg, 42);
  EXPECT_DOUBLE_EQ(report.partition_s, 100.0);
  EXPECT_DOUBLE_EQ(report.end_s, 100.0);  // stopped at the cut, as ever
  EXPECT_EQ(report.heal_s, kInf);         // never ran long enough to heal
  EXPECT_TRUE(report.Conserved());
}

TEST(FaultSimulator, CrashIsNotAFirstDeathAndFreezesTheBattery) {
  // Zero traffic isolates the baseline drain: a node down for 200 of
  // 600 s must spend exactly 400/600 of the fault-free twin's energy —
  // no drain accrues during the outage, and it rejoins with its
  // remaining charge.
  NetSimConfig cfg = ChainConfig();
  cfg.network.node.report_fraction = 0.0;
  cfg.stop_at_first_death = true;  // must NOT trip on the crash
  cfg.faults.scripted = {{100.0, FaultEventKind::kCrash, 1},
                         {300.0, FaultEventKind::kRecover, 1}};
  const NetSimReport faulty = RunOne(cfg, 5);
  EXPECT_EQ(faulty.first_death_s, kInf);
  EXPECT_DOUBLE_EQ(faulty.end_s, 600.0);

  NetSimConfig twin = ChainConfig();
  twin.network.node.report_fraction = 0.0;
  const NetSimReport clean = RunOne(twin, 5);
  EXPECT_GT(clean.nodes[1].energy_used_j, 0.0);
  EXPECT_NEAR(faulty.nodes[1].energy_used_j,
              clean.nodes[1].energy_used_j * (400.0 / 600.0),
              clean.nodes[1].energy_used_j * 1e-9);
  // The other nodes never crashed: identical spend to the twin.
  EXPECT_DOUBLE_EQ(faulty.nodes[0].energy_used_j,
                   clean.nodes[0].energy_used_j);
}

TEST(FaultSimulator, CrashOfABatteryDeadNodeIsANoOp) {
  // Node 1 is battery-starved to die early; the scripted crash/recover
  // pair lands after its death and must not resurrect it.
  NetSimConfig cfg = ChainConfig();
  cfg.battery_mah_override = {50.0, 0.0001, 50.0};
  cfg.faults.scripted = {{500.0, FaultEventKind::kCrash, 1},
                         {550.0, FaultEventKind::kRecover, 1}};
  const NetSimReport report = RunOne(cfg, 8);
  ASSERT_LT(report.first_death_s, 500.0);
  EXPECT_EQ(report.first_dead_node, 1u);
  EXPECT_EQ(report.crashes, 0u);      // nothing left to crash
  EXPECT_EQ(report.recoveries, 0u);   // the paired recover no-ops too
  EXPECT_FALSE(report.nodes[1].alive);
  EXPECT_TRUE(report.Conserved());
}

// ---------------------------------------------------------------------
// Jam windows and sink outages, observably.

TEST(FaultSimulator, JamWindowsCauseLinkLossWithLosslessMac) {
  // Base p_loss = 0: every link-loss drop and retransmission must come
  // from the jam (total jam coverage, p = 1, over the first half).
  NetSimConfig cfg = ChainConfig();
  cfg.mac.p_loss = 0.0;
  cfg.mac.max_retries = 1;
  cfg.faults.jam_windows = 6;
  cfg.faults.jam_radius_m = 500.0;  // covers the whole chain
  cfg.faults.jam_duration_s = 300.0;
  cfg.faults.jam_p_loss = 1.0;
  const NetSimReport jammed = RunOne(cfg, 13);
  EXPECT_GT(jammed.packets.retransmissions, 0u);
  EXPECT_GT(jammed.packets.Dropped(DropReason::kLinkLoss), 0u);
  EXPECT_TRUE(jammed.Conserved());

  NetSimConfig calm = ChainConfig();
  calm.mac.p_loss = 0.0;
  const NetSimReport control = RunOne(calm, 13);
  EXPECT_EQ(control.packets.Dropped(DropReason::kLinkLoss), 0u);
  EXPECT_GT(control.packets.delivered, jammed.packets.delivered);
}

TEST(FaultSimulator, SinkOutagesRejectDeliveriesWithLosslessMac) {
  NetSimConfig cfg = ChainConfig();
  cfg.mac.p_loss = 0.0;
  cfg.mac.max_retries = 1;
  cfg.faults.sink_outages = 3;
  cfg.faults.sink_outage_s = 250.0;
  const NetSimReport outage = RunOne(cfg, 21);
  EXPECT_EQ(outage.sink_outage_windows, 3u);
  EXPECT_GT(outage.packets.Dropped(DropReason::kLinkLoss), 0u);
  EXPECT_TRUE(outage.Conserved());

  NetSimConfig calm = ChainConfig();
  calm.mac.p_loss = 0.0;
  const NetSimReport control = RunOne(calm, 21);
  EXPECT_GT(control.packets.delivered, outage.packets.delivered);
}

// ---------------------------------------------------------------------
// Packet conservation across regimes.

TEST(FaultSimulator, ConservationHoldsAcrossRegimes) {
  {
    NetSimConfig cfg = ChainConfig();  // lossless baseline
    const NetSimReport r = RunOne(cfg, 1);
    EXPECT_GT(r.packets.generated, 0u);
    EXPECT_TRUE(r.Conserved());
  }
  {
    NetSimConfig cfg = ChainConfig();  // lossy links
    cfg.mac.p_loss = 0.3;
    cfg.mac.max_retries = 1;
    const NetSimReport r = RunOne(cfg, 2);
    EXPECT_GT(r.packets.Dropped(DropReason::kLinkLoss), 0u);
    EXPECT_TRUE(r.Conserved());
  }
  {
    NetSimConfig cfg = ChainConfig();  // queue overflow
    cfg.mac.max_queue = 1;
    cfg.network.node.cpu.arrival_rate = 50.0;
    cfg.network.node.cpu.service_rate = 500.0;
    const NetSimReport r = RunOne(cfg, 3);
    EXPECT_GT(r.packets.Dropped(DropReason::kQueueOverflow), 0u);
    EXPECT_TRUE(r.Conserved());
  }
  {
    NetSimConfig cfg = ChurnConfig(6, 6);  // clustered aggregation + churn
    cfg.cluster.protocol = ClusterProtocolKind::kLeach;
    cfg.cluster.head_fraction = 0.15;
    cfg.cluster.round_s = 200.0;
    cfg.cluster.aggregation = 8;
    const NetSimReport r = RunOne(cfg, 4);
    EXPECT_GT(r.crashes, 0u);
    EXPECT_TRUE(r.Conserved());
  }
}

// ---------------------------------------------------------------------
// MAC exponential backoff.

TEST(MacBackoff, GrowthWidensRetryWindowsExactly) {
  MacConfig mc;
  mc.backoff_window_s = 0.004;
  mc.backoff_growth = 3.0;
  util::Rng ctor_rng(1);
  const DutyCycledMac mac(mc, 1, ctor_rng);

  for (const std::uint32_t attempt : {0u, 1u, 2u, 5u}) {
    util::Rng rng(99 + attempt);
    util::Rng probe = rng;  // same stream: reproduce the draw
    const double u = util::UniformDouble(probe);
    double window = mc.backoff_window_s;
    if (attempt > 0) {
      window *= std::pow(mc.backoff_growth, static_cast<double>(attempt));
    }
    const double now = 10.0;
    const double start = now + u * window;
    const double expected =
        now + ((start - now) + 1000.0 / mc.bitrate_bps);
    const DutyCycledMac::TxTiming tx =
        mac.TxFinish(now, 1000, DutyCycledMac::kSinkReceiver, rng, attempt);
    EXPECT_DOUBLE_EQ(tx.finish_s, expected) << "attempt " << attempt;
    EXPECT_FALSE(tx.slotted);
  }
}

TEST(MacBackoff, DefaultGrowthIsBitIdenticalToConstantWindow) {
  MacConfig mc;  // backoff_growth = 1.0 (the historical constant window)
  util::Rng ctor_rng(1);
  const DutyCycledMac mac(mc, 1, ctor_rng);
  util::Rng a(7);
  util::Rng b(7);
  const DutyCycledMac::TxTiming first =
      mac.TxFinish(2.0, 512, DutyCycledMac::kSinkReceiver, a, 0);
  const DutyCycledMac::TxTiming retry =
      mac.TxFinish(2.0, 512, DutyCycledMac::kSinkReceiver, b, 7);
  EXPECT_EQ(first.finish_s, retry.finish_s);  // attempt index ignored
}

TEST(MacBackoff, GrowthBelowOneRejected) {
  MacConfig mc;
  mc.backoff_growth = 0.5;
  EXPECT_THROW(mc.Validate(), util::InvalidArgument);
  mc.backoff_growth = 1.0;
  EXPECT_NO_THROW(mc.Validate());
}

// ---------------------------------------------------------------------
// Config validation: named battery-override errors.

TEST(NetSimValidation, BatteryOverrideArityErrorNamesTheCounts) {
  NetSimConfig cfg = ChainConfig();
  cfg.battery_mah_override = {50.0, 50.0};  // 2 entries, 3 nodes
  try {
    cfg.Validate();
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("battery_mah_override has 2 entries for 3 nodes"),
              std::string::npos)
        << msg;
  }
  EXPECT_THROW(PerNodeConfigs(cfg), util::InvalidArgument);
}

TEST(NetSimValidation, BatteryOverrideNegativeEntryNamesTheIndex) {
  NetSimConfig cfg = ChainConfig();
  cfg.battery_mah_override = {50.0, -2.0, 50.0};
  try {
    cfg.Validate();
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("battery_mah_override[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("positive"), std::string::npos) << msg;
  }
}

TEST(NetSimValidation, BatteryOverrideNanEntryIsRejected) {
  NetSimConfig cfg = ChainConfig();
  cfg.battery_mah_override = {50.0, 50.0,
                              std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);
}

TEST(NetSimValidation, UnknownClassErrorNamesTheClass) {
  NetSimConfig cfg = ChainConfig();
  NodeClass standard;
  standard.name = "standard";
  cfg.classes = {standard};
  cfg.node_class = {"standard", "advanced", "standard"};
  try {
    cfg.Validate();
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown node class 'advanced'"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Replication-level determinism with faults enabled.

TEST(FaultReplication, ThreadCountInvariantWithFaults) {
  NetSimConfig cfg = ChurnConfig(6, 4);
  const core::MarkovCpuModel model;
  ReplicationConfig rep;
  rep.replications = 4;
  rep.seed = 2008;
  rep.keep_reports = true;

  rep.threads = 1;
  const ReplicationSummary serial = RunReplications(cfg, model, rep);
  rep.threads = 4;
  const ReplicationSummary parallel = RunReplications(cfg, model, rep);

  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  std::uint64_t total_crashes = 0;
  for (std::size_t r = 0; r < serial.reports.size(); ++r) {
    EXPECT_EQ(FirstReportDifference(serial.reports[r], parallel.reports[r]),
              "");
    EXPECT_TRUE(serial.reports[r].Conserved()) << "replication " << r;
    total_crashes += serial.reports[r].crashes;
  }
  EXPECT_GT(total_crashes, 0u) << "test must exercise churn";
}

}  // namespace
}  // namespace wsn::netsim
