// The DES kernel's pending-event set — the heap and the far-tier buckets
// inside des::Simulator: fire order against an ordered-set reference
// model under randomized schedule/cancel/step/horizon traffic, and
// cancellation of ids that are not pending.  Time order, FIFO ties, null
// and double cancels and slot reuse are pinned in test_simulator.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "util/rng.hpp"

namespace wsn::des {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// How far ahead of Now() the reference traffic schedules.
struct DelayLaw {
  const char* name;
  double (*delay)(util::Rng&);  ///< a finite delay
  double inf_share;             ///< share of schedules at +inf
};

// A coarse grid: many events tie, zero-delay ones at Now() included.
double GridDelay(util::Rng& rng) {
  return 0.25 * static_cast<double>(util::UniformBelow(rng, 8));
}

// Log-uniform over ten decades, 1e-3 to 1e7 s: the buckets are spread
// thin, and epochs end mid-run.
double SpreadDelay(util::Rng& rng) {
  return std::pow(10.0, -3.0 + 10.0 * util::UniformDouble(rng));
}

void CheckFireOrder(const DelayLaw& law) {
  SCOPED_TRACE(law.name);
  // 120k mixed operations.  Cancels hit the root (the earliest event),
  // the last entry (a just-scheduled latest event), interior entries and
  // the latest event (which keeps +inf events few).  Floods of equal
  // times past the far tier's engage size, RunUntil horizons and +inf
  // times join in.  The reference orders (time, id) exactly as the
  // kernel must.
  Simulator sim;
  util::Rng rng(2024);
  std::set<std::pair<double, EventId>> ref;
  std::vector<EventId> id_of_tag;  // tag -> id, filled after scheduling
  std::vector<EventId> fired;      // ids in fire order
  std::vector<EventId> gone;       // fired or cancelled ids
  std::size_t peak = 0;
  std::vector<bool> engaged;       // far tier at each phase boundary

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
  // A +inf event always goes far while the far tier is engaged: schedule
  // one, see whether it was deferred, and cancel it.
  const auto far_tier_engaged = [&] {
    const std::uint64_t before = sim.Stats().deferred;
    const EventId probe = schedule(kInf);
    const bool deferred = sim.Stats().deferred > before;
    cancel(probe, kInf);
    return deferred;
  };
  // Match the events fired since `before` against the reference front.
  const auto expect_fired = [&](std::size_t before) {
    for (std::size_t k = before; k < fired.size(); ++k) {
      ASSERT_FALSE(ref.empty());
      ASSERT_EQ(fired[k], ref.begin()->second);
      gone.push_back(ref.begin()->second);
      ref.erase(ref.begin());
    }
  };

  for (int op = 0; op < 120000; ++op) {
    // Alternate growing and shrinking phases so the set grows past the
    // far tier's engage size and drains below its release size, again
    // and again.
    if (op % 5000 == 0 && op > 0) engaged.push_back(far_tier_engaged());
    const bool growing = (op / 5000) % 2 == 0;
    const double u = util::UniformDouble(rng);
    if (ref.empty() || u < (growing ? 0.55 : 0.3)) {
      const bool inf = util::UniformDouble(rng) < law.inf_share;
      schedule(inf ? kInf : sim.Now() + law.delay(rng));
    } else if (u < 0.7) {
      const auto [t, id] = *ref.begin();
      if (t == kInf) {
        cancel(id, t);  // firing it would stop the clock at +inf
      } else {
        const std::size_t before = fired.size();
        ASSERT_TRUE(sim.Step());
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(sim.Now(), t);
        expect_fired(before);
      }
    } else if (u < 0.72 && !growing) {
      const double until = sim.Now() + law.delay(rng);
      const std::size_t before = fired.size();
      sim.RunUntil(until);
      ASSERT_EQ(sim.Now(), until);
      expect_fired(before);
      ASSERT_TRUE(ref.empty() || ref.begin()->first > until)
          << "an event due by the horizon did not fire";
    } else if (u < 0.77) {
      const auto [t, id] = *ref.begin();
      cancel(id, t);  // the root
    } else if (u < 0.82) {
      const double t = std::prev(ref.end())->first;
      cancel(schedule(t), t);  // the last entry: the latest key, a tie
    } else if (u < 0.92) {
      const double probe = sim.Now() + law.delay(rng);
      auto it = ref.lower_bound({probe, 0});
      if (it == ref.end()) it = std::prev(ref.end());
      const auto [t, id] = *it;
      cancel(id, t);  // an interior entry (or a leaf)
    } else if (u < 0.94) {
      const auto [t, id] = *std::prev(ref.end());
      cancel(id, t);  // the latest event
    } else if (u < 0.9401) {
      const double t = sim.Now() + law.delay(rng);
      for (int k = 0; k < 600; ++k) schedule(t);  // a flood of equal times
    } else if (!gone.empty()) {
      const EventId stale = gone[util::UniformBelow(rng, gone.size())];
      ASSERT_FALSE(sim.Cancel(stale)) << "stale handle cancelled an event";
    }
    ASSERT_EQ(sim.PendingEvents(), ref.size());
  }

  const std::size_t before = fired.size();
  while (sim.Step()) {
  }
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
  EXPECT_GT(peak, 1000u) << "the event set never grew large";
  // The far tier took part: it engaged and let go more than once.
  EXPECT_GT(stats.deferred, 0u);
  int engages = 0;
  int releases = 0;
  for (std::size_t k = 1; k < engaged.size(); ++k) {
    engages += !engaged[k - 1] && engaged[k];
    releases += engaged[k - 1] && !engaged[k];
  }
  EXPECT_GE(engages, 2);
  EXPECT_GE(releases, 2);
  EXPECT_GT(stats.repartitions, static_cast<std::uint64_t>(engages));
}

TEST(EventSet, FireOrderMatchesOrderedSetReference) {
  CheckFireOrder({"grid", GridDelay, 0.0});
  CheckFireOrder({"spread", SpreadDelay, 0.01});
}

/// A kernel whose events log (time, schedule order) as they fire.  Ids
/// grow in schedule order, so the expected fire order is the sorted list
/// of what was scheduled and not cancelled.
struct OrderLog {
  Simulator sim;
  std::vector<std::pair<double, int>> scheduled;
  std::vector<std::pair<double, int>> fired;
  std::vector<int> cancelled;

  EventId Schedule(double t) {
    const int n = static_cast<int>(scheduled.size());
    scheduled.push_back({t, n});
    return sim.ScheduleAt(t, [this, n] { fired.push_back({sim.Now(), n}); });
  }
  void Cancel(EventId id, int n) {
    ASSERT_TRUE(sim.Cancel(id));
    cancelled.push_back(n);
  }
  std::vector<std::pair<double, int>> Expected() const {
    std::vector<std::pair<double, int>> out;
    for (const auto& e : scheduled) {
      if (std::count(cancelled.begin(), cancelled.end(), e.second) == 0) {
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(EventSet, EqualTimeFloodsAndInfiniteTimesFireInOrder) {
  // The far tier's edge epochs.  A flood of equal times has a zero bucket
  // width, so it goes to the heap whole; a set of only +inf times makes
  // the far tier let go, however large, and the heap then holds it while
  // finite events come and go ahead of it.
  OrderLog log;
  Simulator& sim = log.sim;
  for (int k = 0; k < 600; ++k) log.Schedule(5.0);  // engages at 513
  const Simulator::KernelStats flood = sim.Stats();
  EXPECT_EQ(flood.repartitions, 1u);
  EXPECT_EQ(flood.deferred, 0u) << "the flood was not poured into the heap";
  for (int k = 0; k < 600; ++k) log.Schedule(kInf);
  EXPECT_EQ(sim.Stats().deferred, 600u);
  log.Schedule(3.0);
  log.Schedule(5.0);
  log.Schedule(7.0);
  sim.RunUntil(10.0);
  ASSERT_EQ(log.fired.size(), 603u);
  EXPECT_EQ(sim.PendingEvents(), 600u);

  // Only +inf events remain, and the heap holds them.  Finite traffic up
  // to twice their number stays on the heap instead of engaging the far
  // tier on every schedule.
  const std::uint64_t repartitions = sim.Stats().repartitions;
  for (int k = 0; k < 500; ++k) {
    const EventId id = log.Schedule(20.0 + k % 7);
    if (k % 50 == 0) log.Cancel(id, 1203 + k);
  }
  EXPECT_EQ(sim.Stats().repartitions, repartitions);
  EXPECT_EQ(sim.PendingEvents(), 1090u);
  while (sim.Step()) {
  }
  EXPECT_EQ(log.fired, log.Expected());
  EXPECT_EQ(sim.Now(), kInf);
}

TEST(EventSet, TimesOnBucketBoundariesKeepFifoOrder) {
  // 513 events at times 0-511 and 513 engage the far tier with a bucket
  // width of exactly 1 s, so every integer time sits on a bucket
  // boundary.  Each later event ties with an earlier one that waits in
  // the next bucket, and must fire after it.
  OrderLog log;
  for (int k = 0; k < 512; ++k) log.Schedule(k);
  log.Schedule(513.0);
  ASSERT_EQ(log.sim.Stats().repartitions, 1u);
  for (int k = 0; k < 300; ++k) {
    ASSERT_TRUE(log.sim.Step());
    log.Schedule(log.sim.Now() + 1.0);
    log.Schedule(log.sim.Now() + 2.0);
  }
  while (log.sim.Step()) {
  }
  EXPECT_EQ(log.fired, log.Expected());
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
  while (sim.Step()) {
  }
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace wsn::des
