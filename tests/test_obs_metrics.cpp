// Observability metrics layer: PhaseTimer/Stopwatch semantics, registry
// create-on-first-use, snapshot merge rules, the zero-overhead pin for
// disabled runs and merge determinism across replication thread counts.
#include <gtest/gtest.h>

#include <string>

#include "core/models.hpp"
#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::obs {
namespace {

TEST(PhaseTimer, NullStopwatchIsANoOp) {
  PhaseTimer timer(static_cast<Stopwatch*>(nullptr));
  EXPECT_EQ(timer.Stop(), 0.0);
}

TEST(PhaseTimer, AccumulatesIntoStopwatchOnScopeExit) {
  Stopwatch sw;
  {
    PhaseTimer timer(sw);
  }
  EXPECT_EQ(sw.calls, 1u);
  EXPECT_GE(sw.seconds, 0.0);
}

TEST(PhaseTimer, StopIsIdempotent) {
  Stopwatch sw;
  PhaseTimer timer(sw);
  EXPECT_GE(timer.Stop(), 0.0);
  EXPECT_EQ(timer.Stop(), 0.0);  // second stop records nothing
  EXPECT_EQ(sw.calls, 1u);       // and the destructor will not either
}

TEST(Stopwatch, MergeSumsCallsAndSeconds) {
  Stopwatch a{2, 0.5};
  const Stopwatch b{3, 1.25};
  a.MergeFrom(b);
  EXPECT_EQ(a.calls, 5u);
  EXPECT_DOUBLE_EQ(a.seconds, 1.75);
}

TEST(MetricsRegistry, HandlesAreStableAndCreateOnFirstUse) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.Snapshot().Empty());
  std::uint64_t* c = reg.Counter("a.count");
  *c += 3;
  double* later = reg.Gauge("z.level");  // map insert must not move `c`
  *later = 7.0;
  EXPECT_EQ(reg.Counter("a.count"), c);
  EXPECT_FALSE(reg.Snapshot().Empty());

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("z.level"), 7.0);
}

TEST(MetricsRegistry, GaugeMaxKeepsHighWater) {
  MetricsRegistry reg;
  reg.GaugeMax("hwm", 2.0);
  reg.GaugeMax("hwm", 5.0);
  reg.GaugeMax("hwm", 3.0);
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauges.at("hwm"), 5.0);
}

TEST(MetricsRegistry, HistogramShapeMustAgree) {
  MetricsRegistry reg;
  util::Histogram* h = reg.Hist("lat", 0.0, 1.0, 10);
  EXPECT_EQ(reg.Hist("lat", 0.0, 1.0, 10), h);  // same shape: same handle
  EXPECT_THROW(reg.Hist("lat", 0.0, 2.0, 10), util::InvalidArgument);
  EXPECT_THROW(reg.Hist("lat", 0.0, 1.0, 20), util::InvalidArgument);
}

TEST(MetricsSnapshot, MergeAppliesPerKindRules) {
  MetricsRegistry a;
  *a.Counter("c") += 2;
  *a.Sum("s") += 1.5;
  a.GaugeMax("g", 4.0);
  a.Hist("h", 0.0, 1.0, 2)->Add(0.25);

  MetricsRegistry b;
  *b.Counter("c") += 5;
  *b.Sum("s") += 0.25;
  b.GaugeMax("g", 3.0);
  b.Hist("h", 0.0, 1.0, 2)->Add(0.75);
  b.GaugeMax("only_b", 9.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);         // sum
  EXPECT_DOUBLE_EQ(merged.sums.at("s"), 1.75);    // sum
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 4.0);   // max
  EXPECT_DOUBLE_EQ(merged.gauges.at("only_b"), 9.0);
  EXPECT_EQ(merged.histograms.at("h").counts[0], 1u);  // binwise
  EXPECT_EQ(merged.histograms.at("h").counts[1], 1u);
  EXPECT_EQ(merged.histograms.at("h").total, 2u);
}

TEST(MetricsSnapshot, MergeRejectsHistogramShapeMismatch) {
  MetricsRegistry a;
  a.Hist("h", 0.0, 1.0, 2)->Add(0.5);
  MetricsRegistry b;
  b.Hist("h", 0.0, 1.0, 4)->Add(0.5);
  MetricsSnapshot merged = a.Snapshot();
  EXPECT_THROW(merged.MergeFrom(b.Snapshot()), util::InvalidArgument);
}

TEST(MetricsSnapshot, JsonSeparatesDeterministicFromWallClock) {
  MetricsRegistry reg;
  *reg.Counter("c") += 1;
  reg.Timing("t")->MergeFrom(Stopwatch{1, 0.125});
  const MetricsSnapshot snap = reg.Snapshot();

  const std::string with = snap.ToJson(2, /*include_timings=*/true);
  const std::string without = snap.ToJson(2, /*include_timings=*/false);
  EXPECT_NE(with.find("\"timings\""), std::string::npos);
  EXPECT_EQ(without.find("\"timings\""), std::string::npos);
  EXPECT_NE(without.find("\"counters\""), std::string::npos);
}

// ---------------------------------------------------------------- netsim

netsim::NetSimConfig TinyChain() {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 15.0;
  cfg.network.node.cpu.service_rate = 150.0;
  cfg.network.node.sample_bits = 2048;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 0.3;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 60.0;
  cfg.positions = {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}};
  cfg.horizon_s = 40.0;
  return cfg;
}

// 600 nodes that each keep an arrival timer pending: more than the 512
// pending events at which the kernel's far tier engages.
netsim::NetSimConfig WideGrid() {
  netsim::NetSimConfig cfg = TinyChain();
  cfg.network.node.cpu.arrival_rate = 0.5;
  cfg.network.node.cpu.service_rate = 5.0;
  cfg.network.node.battery_mah = 2000.0;
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(30, 20, 15.0);
  cfg.horizon_s = 20.0;
  return cfg;
}

// A LEACH grid with crash churn, low-power listening, staged battery
// deaths and timeline ticks, so every kind of netsim event fires.
netsim::NetSimConfig ClusteredFaultedGrid() {
  netsim::NetSimConfig cfg = WideGrid();
  cfg.positions = node::MakeGrid(10, 8, 20.0);
  cfg.horizon_s = 200.0;
  cfg.timeline_interval_s = 50.0;
  cfg.mac.wakeup_interval_s = 0.5;
  cfg.battery_mah_override.assign(cfg.positions.size(), 2000.0);
  for (std::size_t i = 0; i < cfg.positions.size(); i += 9) {
    cfg.battery_mah_override[i] = 0.02;
  }
  cfg.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
  cfg.cluster.head_fraction = 0.1;
  cfg.cluster.round_s = 40.0;
  cfg.faults.crash_rate_hz = 0.002;
  cfg.faults.mean_outage_s = 30.0;
  return cfg;
}

// The zero-overhead pin: a run with observability off must produce an
// empty snapshot (no registry was ever created) and an empty trace.
TEST(NetSimObs, DisabledRunContributesNothing) {
  netsim::NetSimConfig cfg = TinyChain();
  ASSERT_FALSE(cfg.obs.metrics);
  ASSERT_FALSE(cfg.obs.trace.enabled);
  const core::MarkovCpuModel model;
  netsim::NetworkSimulator sim(cfg, netsim::CpuAveragePowerMw(cfg, model),
                               util::Rng(1));
  const netsim::NetSimReport report = sim.Run();
  EXPECT_TRUE(report.metrics.Empty());
  EXPECT_TRUE(report.trace.empty());
  EXPECT_GT(report.packets.delivered, 0u);
}

// With metrics on, the registry's core counters must agree with the
// report fields the simulator has always exposed.
TEST(NetSimObs, CountersMatchReportFields) {
  netsim::NetSimConfig cfg = TinyChain();
  cfg.obs.metrics = true;
  const core::MarkovCpuModel model;
  netsim::NetworkSimulator sim(cfg, netsim::CpuAveragePowerMw(cfg, model),
                               util::Rng(1));
  const netsim::NetSimReport report = sim.Run();

  const auto& c = report.metrics.counters;
  EXPECT_EQ(c.at("netsim.packets.generated"), report.packets.generated);
  EXPECT_EQ(c.at("netsim.packets.delivered"), report.packets.delivered);
  EXPECT_EQ(c.at("netsim.packets.forwarded"), report.packets.forwarded);
  EXPECT_EQ(c.at("des.events.fired"), report.events);
  EXPECT_EQ(c.at("netsim.routing.repairs"), report.routing_repairs);
  EXPECT_TRUE(report.metrics.timings.count("netsim.routing.repair_wall_s"));
}

// The merged snapshot must be byte-identical no matter how many threads
// ran the replications (wall-clock sections excluded by definition).
// The wide grid pins the far tier's counters too, and the clustered,
// faulted grid the fired count of every event kind.
TEST(NetSimObs, MergedMetricsIndependentOfThreadCount) {
  const char* const kinds[] = {"arrival", "tx_finish", "wakeup_batch",
                               "death",   "fault",     "round",
                               "timeline"};
  for (netsim::NetSimConfig cfg :
       {TinyChain(), WideGrid(), ClusteredFaultedGrid()}) {
    cfg.obs.metrics = true;
    const core::MarkovCpuModel model;

    netsim::ReplicationConfig rep;
    rep.replications = 6;
    rep.seed = 77;
    util::ParallelExecutor serial(1);
    util::ParallelExecutor parallel(4);

    const netsim::ReplicationSummary rs =
        RunReplications(cfg, model, rep, serial);
    const netsim::ReplicationSummary rp =
        RunReplications(cfg, model, rep, parallel);
    EXPECT_FALSE(rs.metrics.Empty());
    EXPECT_EQ(rs.metrics.ToJson(2, /*include_timings=*/false),
              rp.metrics.ToJson(2, /*include_timings=*/false));
    const bool wide = cfg.positions.size() > 512;
    EXPECT_EQ(rs.metrics.counters.at("des.events.deferred") > 0, wide);
    EXPECT_EQ(rs.metrics.counters.at("des.far.repartitions") > 0, wide);

    // Every fired event is counted under exactly one kind.
    const bool every_kind = cfg.cluster.Enabled();
    std::uint64_t by_kind = 0;
    for (const char* kind : kinds) {
      const std::uint64_t fired =
          rs.metrics.counters.at(std::string("des.events.fired.") + kind);
      by_kind += fired;
      if (every_kind) {
        EXPECT_GT(fired, 0u) << kind;
      }
    }
    EXPECT_EQ(by_kind, rs.metrics.counters.at("des.events.fired"));
  }
}

}  // namespace
}  // namespace wsn::obs
