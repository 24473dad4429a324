// Pooled packet FIFOs and batched LPL wakeups (ISSUE 7): PacketQueues
// slab/free-list semantics, and the bit-identity of batched vs
// unbatched MAC wake-slot delivery — same timestamps, same FIFO order,
// fewer kernel events.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "netsim/netsim.hpp"
#include "netsim/packet.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {
namespace {

Packet MakePacket(std::uint64_t id) {
  Packet p;
  p.id = id;
  p.source = id % 7;
  p.bits = 1024;
  return p;
}

TEST(PacketQueues, PerNodeFifoWithPushFront) {
  PacketQueues q(3);
  EXPECT_TRUE(q.Empty(0));
  EXPECT_EQ(q.Size(1), 0u);

  q.PushBack(1, MakePacket(10));
  q.PushBack(1, MakePacket(11));
  q.PushBack(2, MakePacket(20));
  EXPECT_EQ(q.Size(1), 2u);
  EXPECT_EQ(q.Front(1).id, 10u);
  EXPECT_EQ(q.Front(2).id, 20u);
  EXPECT_TRUE(q.Empty(0));

  // Retransmission requeue goes to the front of its own node only.
  q.PushFront(1, MakePacket(9));
  EXPECT_EQ(q.Front(1).id, 9u);
  q.PopFront(1);
  EXPECT_EQ(q.Front(1).id, 10u);
  q.PopFront(1);
  EXPECT_EQ(q.Front(1).id, 11u);
  q.PopFront(1);
  EXPECT_TRUE(q.Empty(1));
  EXPECT_FALSE(q.Empty(2));

  // PushFront into an empty queue sets both cursors.
  q.PushFront(0, MakePacket(1));
  EXPECT_EQ(q.Front(0).id, 1u);
  EXPECT_EQ(q.Size(0), 1u);
}

TEST(PacketQueues, SlabGrowsToPeakAndRecyclesSlots) {
  PacketQueues q(4);
  // Peak of 6 simultaneously queued packets across two nodes.
  for (std::uint64_t i = 0; i < 3; ++i) q.PushBack(0, MakePacket(i));
  for (std::uint64_t i = 0; i < 3; ++i) q.PushBack(3, MakePacket(100 + i));
  EXPECT_EQ(q.Slots(), 6u);

  // Drain and refill: churn must reuse freed slots, never grow the slab.
  for (int round = 0; round < 50; ++round) {
    q.PopFront(0);
    q.PushBack(1, MakePacket(1000 + round));
    q.PopFront(1);
    q.PushBack(0, MakePacket(2000 + round));
  }
  EXPECT_EQ(q.Slots(), 6u);
  EXPECT_EQ(q.Size(0), 3u);
  EXPECT_EQ(q.Size(3), 3u);
  // FIFO order survived the churn.
  EXPECT_EQ(q.Front(3).id, 100u);
}

// ---------------------------------------------------------------------
// Batched LPL wakeups: identical simulation outcomes, fewer events.

NetSimConfig LplConfig() {
  NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 6.0;
  cfg.network.node.cpu.service_rate = 60.0;
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 0.05;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 40.0;
  cfg.positions = node::MakeGrid(6, 4, 15.0);
  // A long wake interval funnels many senders onto the same receiver
  // wake slot, so real multi-waiter batches form.
  cfg.mac.wakeup_interval_s = 0.25;
  cfg.horizon_s = 900.0;
  return cfg;
}

NetSimReport RunBatched(NetSimConfig cfg, bool batched, bool metrics) {
  cfg.batch_mac_wakeups = batched;
  cfg.obs.metrics = metrics;
  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model),
                       util::Rng(2008).MakeStream(0));
  return sim.Run();
}

// First report field in which a batched run differs from its unbatched
// twin, the kernel event count aside: batching merges same-timestamp
// events into one, so `events` legitimately shrinks and each test
// asserts on it separately.
std::string FirstOutcomeDifference(const NetSimReport& batched,
                                   NetSimReport unbatched) {
  unbatched.events = batched.events;
  return FirstReportDifference(batched, unbatched);
}

TEST(BatchedWakeups, BitIdenticalToUnbatchedUnderLpl) {
  const NetSimConfig cfg = LplConfig();
  const NetSimReport on = RunBatched(cfg, /*batched=*/true, /*metrics=*/true);
  const NetSimReport off =
      RunBatched(cfg, /*batched=*/false, /*metrics=*/false);

  EXPECT_EQ(FirstOutcomeDifference(on, off), "");

  // The batches must actually form (otherwise this test pins nothing):
  // at least one batch, and strictly more waiters than batches proves
  // multi-waiter slots existed — which is exactly when the kernel event
  // count shrinks.
  const auto batches = on.metrics.counters.find("netsim.mac.wakeup_batches");
  const auto waiters = on.metrics.counters.find("netsim.mac.wakeups_batched");
  ASSERT_NE(batches, on.metrics.counters.end());
  ASSERT_NE(waiters, on.metrics.counters.end());
  EXPECT_GT(batches->second, 0u);
  EXPECT_GT(waiters->second, batches->second);
  EXPECT_LT(on.events, off.events);
}

TEST(BatchedWakeups, NoOpWithoutLpl) {
  // Always-on MAC: no wake slots, so the batching flag must change
  // nothing at all — including the kernel event count.
  NetSimConfig cfg = LplConfig();
  cfg.mac.wakeup_interval_s = 0.0;
  const NetSimReport on = RunBatched(cfg, true, true);
  const NetSimReport off = RunBatched(cfg, false, false);
  EXPECT_EQ(FirstOutcomeDifference(on, off), "");
  EXPECT_EQ(on.events, off.events);
  const auto batches = on.metrics.counters.find("netsim.mac.wakeup_batches");
  ASSERT_NE(batches, on.metrics.counters.end());
  EXPECT_EQ(batches->second, 0u);
}

TEST(BatchedWakeups, ClusteredLplRunsStayIdenticalToo) {
  // Clustered mode reuses the same TX path; pin the equivalence there as
  // well (head aggregation + election churn on top of LPL batching).
  NetSimConfig cfg = LplConfig();
  cfg.cluster.protocol = ClusterProtocolKind::kLeach;
  cfg.cluster.head_fraction = 0.2;
  cfg.cluster.round_s = 150.0;
  cfg.cluster.aggregation = 4;
  const NetSimReport on = RunBatched(cfg, true, false);
  const NetSimReport off = RunBatched(cfg, false, false);
  EXPECT_EQ(FirstOutcomeDifference(on, off), "");
  EXPECT_LE(on.events, off.events);
}

}  // namespace
}  // namespace wsn::netsim
