// Discrete-event simulation kernel.
//
// Single-threaded by design: one Simulator = one replication.  Parallelism
// happens one level up (util::ParallelFor over replications, each with a
// jump-separated RNG stream), which keeps the kernel free of locks and the
// results bit-reproducible for a given (seed, replication) pair.
//
// Event storage is a generation-checked slab: each pending event occupies
// one slot of a free-list-recycled vector, its callback embedded inline
// via the small-buffer-optimized InlineAction — so the schedule/fire/cancel
// cycle performs no per-event heap allocation and no hashing.
//
// Pending events fire in (time, id) order.  Ids grow with every schedule,
// so simultaneous events fire in schedule order (FIFO).  The pending set
// has two tiers:
//
//  * the near tier, an indexed 4-ary min-heap of contiguous (time, id)
//    keys.  Each slab slot records where its key sits in the heap, which
//    makes Cancel an eager O(log n) removal;
//  * the far tier, unsorted bucket lists of equal time width plus an
//    overflow list past the last bucket (a calendar queue's buckets, kept
//    exact).  Schedule and Cancel are O(1) there: an intrusive doubly
//    linked list through slab slots.
//
// A key's tier and bucket are monotone functions of its time alone, so
// every near key precedes every far key and equal times share a tier.
// When the heap empties, the next non-empty bucket is poured into it;
// when the buckets run out, the overflow list is re-bucketed into a new
// epoch.  Both tiers hold only live events.  The far tier engages once
// more than kEngageSize events are pending and lets go when a
// repartition finds fewer than kReleaseSize, so small event sets stay
// on the plain heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "des/action.hpp"

namespace wsn::des {

using EventId = std::uint64_t;

/// EventId bit layout: the low kEventSlotBits address the kernel's
/// event-record slab slot, the high bits carry a schedule sequence number
/// that increases on every schedule.  Ids are therefore strictly
/// increasing in schedule order (the FIFO tie-break is a plain integer
/// comparison), and a handle whose slot was since reused carries a
/// different sequence, so it can never cancel the slot's new occupant.
/// Id 0 is reserved as the "no event" handle and is never live.
inline constexpr unsigned kEventSlotBits = 24;
inline constexpr EventId kEventSlotMask = (EventId{1} << kEventSlotBits) - 1;

/// Slab slot addressed by an id.
constexpr std::size_t EventSlotOf(EventId id) noexcept {
  return static_cast<std::size_t>(id & kEventSlotMask);
}

class Simulator {
 public:
  using Action = InlineAction;

  /// Current simulation time.
  double Now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `time` (>= Now()).
  EventId ScheduleAt(double time, Action action);

  /// Schedule `action` after `delay` (>= 0) from Now().
  EventId ScheduleAfter(double delay, Action action);

  /// Cancel a pending event.  Returns false if it already fired or was
  /// already cancelled (including when its slot has been reused by a
  /// later event), and for the reserved id 0.
  bool Cancel(EventId id);

  /// Fire the next event.  Returns false when no events remain.
  bool Step();

  /// Run until the event set drains or the next event is later than
  /// `until`; Now() is clamped to `until` at exit so time-weighted
  /// statistics can be finalized at the horizon.
  void RunUntil(double until);

  /// Number of events fired so far.
  std::uint64_t ProcessedEvents() const noexcept { return processed_; }

  /// Live (pending, uncancelled) events, in both tiers.
  std::size_t PendingEvents() const noexcept {
    return heap_.size() + far_count_;
  }

  /// High-water slot count of the event-record slab (diagnostics: the
  /// peak number of simultaneously pending events this kernel has seen).
  std::size_t SlabSlots() const noexcept { return slab_.size(); }

  /// Kernel counters for the obs metrics layer.  All maintained as plain
  /// unconditional increments on fields the hot path already touches, so
  /// they cost the same whether or not anyone reads them.
  struct KernelStats {
    std::uint64_t scheduled = 0;    ///< events ever scheduled
    std::uint64_t fired = 0;        ///< events fired
    std::uint64_t cancelled = 0;    ///< events cancelled before firing
    std::uint64_t slab_reuses = 0;  ///< slot acquisitions served by the
                                    ///< free list (vs slab growth)
    std::uint64_t live_hwm = 0;     ///< peak simultaneously pending events
    std::uint64_t slab_slots = 0;   ///< event-record slab size
    std::uint64_t deferred = 0;     ///< schedules that entered the far tier
    std::uint64_t repartitions = 0; ///< far-tier epochs started (engaging
                                    ///< included)
  };

  KernelStats Stats() const noexcept {
    return {next_seq_ - 1, processed_,  cancelled_, slab_reuses_,
            live_hwm_,     slab_.size(), deferred_, repartitions_};
  }

 private:
  struct HeapKey {
    double time;
    EventId id;

    /// Earliest time first, then lowest id (FIFO among simultaneous
    /// events).  Ids are unique, so this is a strict total order.
    bool operator<(const HeapKey& other) const noexcept {
      if (time != other.time) return time < other.time;
      return id < other.id;
    }
  };

  struct EventRecord {
    InlineAction action;
    std::uint32_t next_free = kNoFreeSlot;
  };

  /// A far-tier entry, per slab slot: the key and its list links.
  struct FarNode {
    HeapKey key;
    std::uint32_t prev;  ///< previous slot, or kListHead | list at a head
    std::uint32_t next;  ///< next slot, or kNil
  };

  static constexpr std::uint32_t kNoFreeSlot =
      std::numeric_limits<std::uint32_t>::max();
  /// heap_pos_ value of a slot that holds no pending event.
  static constexpr std::uint32_t kNotQueued =
      std::numeric_limits<std::uint32_t>::max();
  /// heap_pos_ value of a slot whose event sits in the far tier.
  static constexpr std::uint32_t kFar = kNotQueued - 1;
  /// End of a far-tier list.
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  /// FarNode::prev flag: the node heads list (prev & ~kListHead).
  static constexpr std::uint32_t kListHead = std::uint32_t{1} << 31;
  /// Pending-set sizes at which the far tier engages and lets go.
  static constexpr std::size_t kEngageSize = 512;
  static constexpr std::size_t kReleaseSize = 128;

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::size_t slot);

  /// Write `key` at heap index `pos` and record the position in its slot.
  void Place(std::size_t pos, const HeapKey& key);
  void SiftUp(std::size_t pos, HeapKey key);
  void Push(const HeapKey& key);
  /// Remove the key at heap index `pos`, refilling the hole with the last
  /// key.
  void RemoveAt(std::size_t pos);

  /// While the far tier is engaged: link `key` into the bucket it falls
  /// in or the overflow list, or return false when it belongs in the heap.
  bool Defer(const HeapKey& key);
  void Link(const HeapKey& key, std::size_t list);
  void Unlink(std::size_t slot);
  /// Move every key of far-tier list `list` into the heap.
  void Pour(std::size_t list);
  /// Called with the heap empty: refill it from the far tier.  False when
  /// no event is pending at all.
  bool Refill();
  /// Move every pending key into the overflow list and partition it.
  void Engage();
  /// Start a new epoch over the overflow list, which then holds every
  /// pending key, or pour it into the heap and let the far tier go.
  void Partition();

  std::vector<HeapKey> heap_;
  std::vector<EventRecord> slab_;
  /// Per slab slot: index of its key in heap_, kFar, or kNotQueued when
  /// free.
  std::vector<std::uint32_t> heap_pos_;
  std::uint32_t free_head_ = kNoFreeSlot;

  // Far tier.  A key of time t has q = (t - start_) / width_.  It goes
  // to the heap when q < near_limit_ (the current bucket plus one), to
  // bucket floor(q) when q < bucket_limit_, and to the overflow list
  // otherwise (+inf included).
  std::vector<FarNode> far_;  ///< per slab slot
  /// List heads: bucket b at index b, the overflow list last.
  std::vector<std::uint32_t> far_head_;
  std::size_t far_count_ = 0;  ///< keys in the far tier
  std::size_t cur_ = 0;        ///< bucket last poured into the heap
  double start_ = 0.0;
  double width_ = 1.0;
  double near_limit_ = 0.0;
  double bucket_limit_ = 0.0;
  /// Heap size past which the far tier engages: SIZE_MAX while it is
  /// engaged, raised when a release pours many +inf events into the heap.
  std::size_t engage_above_ = kEngageSize;
  bool far_on_ = false;
  std::uint64_t deferred_ = 0;
  std::uint64_t repartitions_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slab_reuses_ = 0;
  std::uint64_t live_hwm_ = 0;
};

}  // namespace wsn::des
