// DES kernel: clock semantics, scheduling order, cancellation, horizons,
// event chains, the event-record slab (generation-checked reuse) and the
// InlineAction small-buffer-optimized callable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "des/action.hpp"
#include "des/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::des {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.ProcessedEvents(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  while (sim.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(1.0, [&] { order.push_back(2); });
  sim.ScheduleAt(1.0, [&] { order.push_back(3); });
  while (sim.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.Now(); });
  });
  while (sim.Step()) {
  }
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  while (sim.Step()) {
  }
  EXPECT_FALSE(fired);
  EXPECT_FALSE(sim.Cancel(id));  // already gone
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  bool second_fired = false;
  const EventId victim =
      sim.ScheduleAt(2.0, [&] { second_fired = true; });
  sim.ScheduleAt(1.0, [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  while (sim.Step()) {
  }
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, RunUntilStopsAtHorizonAndClampsClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(20.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
}

TEST(Simulator, EventAtHorizonBoundaryFires) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(5.0, [&] { fired = true; });
  sim.RunUntil(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, ZeroDelayChainProcessesInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] {
    order.push_back(1);
    sim.ScheduleAfter(0.0, [&] {
      order.push_back(2);
      sim.ScheduleAfter(0.0, [&] { order.push_back(3); });
    });
  });
  while (sim.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.ScheduleAt(2.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_THROW(sim.ScheduleAt(1.0, [] {}), util::InvalidArgument);
  EXPECT_THROW(sim.ScheduleAfter(-0.5, [] {}), util::InvalidArgument);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) {
    sim.ScheduleAt(static_cast<double>(i), [] {});
  }
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.ProcessedEvents(), 25u);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator sim;
  sim.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, CancelRemovesFarFutureEventsAtOnce) {
  // Cancel removes the entry from the event set immediately, so
  // PendingEvents drops before the cancelled events' times come.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.ScheduleAt(1.0 + i, [] {}));
  }
  EXPECT_EQ(sim.PendingEvents(), 10u);
  for (int i = 5; i < 10; ++i) {
    EXPECT_TRUE(sim.Cancel(ids[i]));
  }
  EXPECT_EQ(sim.PendingEvents(), 5u);
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.ProcessedEvents(), 5u);
}

TEST(Simulator, CancelOfReservedNullIdIsAlwaysFalse) {
  // 0 is the "no pending event" sentinel callers store (netsim's death
  // timer); it must never match a freed slab record's cleared id.
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(0));  // before any slot exists
  sim.ScheduleAt(1.0, [] {});
  while (sim.Step()) {  // slot 0 then sits freed on the free list
  }
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.ScheduleAt(2.0, [] {});   // the recycled slot must still be usable
  EXPECT_EQ(sim.PendingEvents(), 1u);
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.ProcessedEvents(), 2u);
}

TEST(Simulator, CancelAfterFireReturnsFalseEvenAfterSlotReuse) {
  Simulator sim;
  const EventId first = sim.ScheduleAt(1.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_FALSE(sim.Cancel(first));  // already fired
  // The next event reuses the freed slab slot; the stale handle must
  // keep failing while the fresh one works.
  const EventId second = sim.ScheduleAt(3.0, [] {});
  EXPECT_EQ(EventSlotOf(first), EventSlotOf(second));
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_TRUE(sim.Cancel(second));
}

TEST(Simulator, FifoTieBreakSurvivesSlotReuse) {
  // Slot indices recycle but sequence numbers never do, so simultaneous
  // events still fire in schedule order even when a later event occupies
  // a lower (reused) slot.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.ScheduleAt(5.0, [&] { order.push_back(1); });
  sim.ScheduleAt(5.0, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Cancel(a));
  const EventId c = sim.ScheduleAt(5.0, [&] { order.push_back(3); });
  EXPECT_EQ(EventSlotOf(c), EventSlotOf(a));  // reused the freed slot
  EXPECT_GT(c, a);                            // but with a later sequence
  while (sim.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Simulator, SlabReuseStressNoStaleCallbackFires) {
  // 100k mixed schedule/cancel/fire operations: every callback must fire
  // exactly once or not at all (if cancelled), stale handles must never
  // cancel a successor, and the slab must stay bounded by the peak
  // pending count (slots are recycled, not leaked).
  struct Cell {
    int state = 0;  // 0 = pending, 1 = fired, 2 = cancelled
  };
  Simulator sim;
  util::Rng rng(99);
  std::deque<Cell> cells;
  std::vector<std::pair<EventId, Cell*>> pending;
  std::size_t peak_pending = 0;
  EventId last_id = 0;
  std::uint64_t scheduled = 0;

  const auto schedule_one = [&] {
    cells.emplace_back();
    Cell* cell = &cells.back();
    const double t = sim.Now() + util::UniformDouble(rng) * 10.0;
    const EventId id = sim.ScheduleAt(t, [cell] {
      EXPECT_EQ(cell->state, 0) << "stale or double callback fired";
      cell->state = 1;
    });
    EXPECT_GT(id, last_id) << "event ids must stay strictly monotone";
    last_id = id;
    pending.push_back({id, cell});
    ++scheduled;
    peak_pending = std::max(peak_pending, sim.PendingEvents());
  };

  for (int i = 0; i < 100000; ++i) {
    const double op = util::UniformDouble(rng);
    if (op < 0.5 || pending.empty()) {
      schedule_one();
    } else if (op < 0.7) {
      const std::size_t pick = util::UniformBelow(rng, pending.size());
      auto [id, cell] = pending[pick];
      EXPECT_TRUE(sim.Cancel(id));
      EXPECT_FALSE(sim.Cancel(id)) << "double cancel must fail";
      cell->state = 2;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      sim.Step();
      // Firing pops some pending entry; prune fired ones lazily.
      std::erase_if(pending, [&](const auto& entry) {
        if (entry.second->state != 1) return false;
        EXPECT_FALSE(sim.Cancel(entry.first)) << "cancel-after-fire";
        return true;
      });
    }
    ASSERT_EQ(sim.PendingEvents(), pending.size());
  }
  while (sim.Step()) {
  }

  std::uint64_t fired = 0, cancelled = 0;
  for (const Cell& cell : cells) {
    EXPECT_NE(cell.state, 0) << "event neither fired nor cancelled";
    if (cell.state == 1) ++fired;
    if (cell.state == 2) ++cancelled;
  }
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_EQ(sim.ProcessedEvents(), fired);
  EXPECT_LE(sim.SlabSlots(), peak_pending) << "slab slots not recycled";
}

TEST(InlineAction, SmallCaptureStaysInlineAndInvokes) {
  int hits = 0;
  InlineAction a([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(a.IsInline());
  a();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, OversizeCaptureFallsBackToHeapBox) {
  std::array<char, 2 * kActionInlineCapacity> big{};
  big[0] = 7;
  int out = 0;
  InlineAction a([big, &out] { out = big[0]; });
  EXPECT_FALSE(a.IsInline());
  a();
  EXPECT_EQ(out, 7);
}

TEST(InlineAction, MoveTransfersOwnership) {
  int hits = 0;
  InlineAction a([&hits] { ++hits; });
  InlineAction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  InlineAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(Simulator, OversizeActionSchedulesAndFires) {
  // Closures past the inline budget are boxed, not rejected.
  Simulator sim;
  std::array<double, 16> payload{};
  payload[15] = 42.0;
  double seen = 0.0;
  sim.ScheduleAt(1.0, [payload, &seen] { seen = payload[15]; });
  while (sim.Step()) {
  }
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

}  // namespace
}  // namespace wsn::des
