// The DES kernel's pending-event set — the indexed heap inside
// des::Simulator: fire order against an ordered-set reference model under
// randomized schedule/cancel/step traffic, and cancellation of ids that
// are not pending.  Time order, FIFO ties, null and double cancels and
// slot reuse are pinned in test_simulator.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "util/rng.hpp"

namespace wsn::des {
namespace {

TEST(EventSet, FireOrderMatchesOrderedSetReference) {
  // 120k mixed operations.  Times come from a coarse grid, so many events
  // tie (zero-delay ones at Now() included), and cancels hit the heap
  // root (the earliest event), the last heap entry (a just-scheduled
  // latest event, which never sifts up) and interior entries.  The
  // reference orders (time, id) exactly as the kernel must.
  Simulator sim;
  util::Rng rng(2024);
  std::set<std::pair<double, EventId>> ref;
  std::vector<EventId> id_of_tag;  // tag -> id, filled after scheduling
  std::vector<EventId> fired;      // ids in fire order
  std::vector<EventId> gone;       // fired or cancelled ids
  std::size_t peak = 0;

  const auto schedule = [&](double t) {
    const std::size_t tag = id_of_tag.size();
    const EventId id = sim.ScheduleAt(
        t, [&id_of_tag, &fired, tag] { fired.push_back(id_of_tag[tag]); });
    id_of_tag.push_back(id);
    ref.insert({t, id});
    peak = std::max(peak, ref.size());
    return id;
  };
  const auto cancel = [&](EventId id, double t) {
    ASSERT_TRUE(sim.Cancel(id));
    ASSERT_FALSE(sim.Cancel(id)) << "double cancel must fail";
    ref.erase({t, id});
    gone.push_back(id);
  };

  for (int op = 0; op < 120000; ++op) {
    // Alternate growing and shrinking phases so the heap runs several
    // levels deep and also drains to empty now and then.
    const bool growing = (op / 5000) % 2 == 0;
    const double u = util::UniformDouble(rng);
    if (ref.empty() || u < (growing ? 0.55 : 0.3)) {
      schedule(sim.Now() + 0.25 * static_cast<double>(
                                       util::UniformBelow(rng, 8)));
    } else if (u < 0.75) {
      const auto [t, id] = *ref.begin();
      const std::size_t before = fired.size();
      ASSERT_TRUE(sim.Step());
      ASSERT_EQ(fired.size(), before + 1);
      ASSERT_EQ(fired.back(), id);
      ASSERT_EQ(sim.Now(), t);
      ref.erase(ref.begin());
      gone.push_back(id);
    } else if (u < 0.8) {
      const auto [t, id] = *ref.begin();
      cancel(id, t);  // the root
    } else if (u < 0.85) {
      const double t = std::prev(ref.end())->first;
      cancel(schedule(t), t);  // the last entry: the latest key, a tie
    } else if (u < 0.95) {
      const double probe = sim.Now() + 2.0 * util::UniformDouble(rng);
      auto it = ref.lower_bound({probe, 0});
      if (it == ref.end()) it = std::prev(ref.end());
      const auto [t, id] = *it;
      cancel(id, t);  // an interior entry (or a leaf)
    } else if (!gone.empty()) {
      const EventId stale = gone[util::UniformBelow(rng, gone.size())];
      ASSERT_FALSE(sim.Cancel(stale)) << "stale handle cancelled an event";
    }
    ASSERT_EQ(sim.PendingEvents(), ref.size());
  }

  const std::size_t before = fired.size();
  sim.RunToCompletion();
  ASSERT_EQ(fired.size() - before, ref.size());
  auto expected = ref.begin();
  for (std::size_t k = before; k < fired.size(); ++k, ++expected) {
    ASSERT_EQ(fired[k], expected->second);
  }

  const Simulator::KernelStats stats = sim.Stats();
  EXPECT_EQ(stats.fired, fired.size());
  EXPECT_EQ(stats.fired + stats.cancelled, stats.scheduled);
  EXPECT_EQ(stats.live_hwm, peak);
  EXPECT_EQ(sim.SlabSlots(), peak) << "slab grows only past the live peak";
  EXPECT_GT(peak, 1000u) << "the heap never ran deep";
}

TEST(EventSet, CancelOfIdsNeverHandedOutReturnsFalse) {
  Simulator sim;
  bool fired = false;
  const EventId live = sim.ScheduleAt(1.0, [&] { fired = true; });
  // Same slot, a sequence not yet handed out.
  EXPECT_FALSE(sim.Cancel(live + (EventId{1} << kEventSlotBits)));
  // A slot past the end of the slab.
  EXPECT_FALSE(sim.Cancel(live + 1));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace wsn::des
