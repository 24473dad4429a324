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
// The pending-event set is one indexed 4-ary min-heap of contiguous
// (time, id) keys, ordered by time and then by id.  Ids grow with every
// schedule, so simultaneous events fire in schedule order (FIFO).  Each
// slab slot records where its key sits in the heap, which makes Cancel an
// eager O(log n) removal: the heap only ever holds live events.
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

  /// Run until the event set drains completely.
  void RunToCompletion();

  /// Number of events fired so far.
  std::uint64_t ProcessedEvents() const noexcept { return processed_; }

  /// Live (pending, uncancelled) events.
  std::size_t PendingEvents() const noexcept { return heap_.size(); }

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
  };

  KernelStats Stats() const noexcept {
    return {next_seq_ - 1, processed_, cancelled_,
            slab_reuses_,  live_hwm_,  slab_.size()};
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

  static constexpr std::uint32_t kNoFreeSlot =
      std::numeric_limits<std::uint32_t>::max();
  /// heap_pos_ value of a slot that holds no pending event.
  static constexpr std::uint32_t kNotQueued =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::size_t slot);

  /// Write `key` at heap index `pos` and record the position in its slot.
  void Place(std::size_t pos, const HeapKey& key);
  void SiftUp(std::size_t pos, HeapKey key);
  /// Remove the key at heap index `pos`, refilling the hole with the last
  /// key.
  void RemoveAt(std::size_t pos);

  std::vector<HeapKey> heap_;
  std::vector<EventRecord> slab_;
  /// Per slab slot: index of its key in heap_, or kNotQueued when free.
  std::vector<std::uint32_t> heap_pos_;
  std::uint32_t free_head_ = kNoFreeSlot;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slab_reuses_ = 0;
  std::uint64_t live_hwm_ = 0;
};

}  // namespace wsn::des
