#include "des/simulator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wsn::des {

using util::Require;

namespace {

// The sequence field occupies the bits above the slot; leaving headroom
// of one bit keeps (seq << kEventSlotBits) from ever overflowing.
constexpr std::uint64_t kMaxSequence =
    (std::uint64_t{1} << (64 - kEventSlotBits - 1)) - 1;

// Children per heap node.  A node's four 16-byte child keys are 64
// contiguous bytes, and the tree is half as deep as a binary one.
constexpr std::size_t kArity = 4;

}  // namespace

std::uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    ++slab_reuses_;
    return slot;
  }
  Require(slab_.size() < kEventSlotMask,
          "event slab exhausted (too many simultaneously pending events)");
  slab_.emplace_back();
  heap_pos_.push_back(kNotQueued);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::ReleaseSlot(std::size_t slot) {
  EventRecord& rec = slab_[slot];
  rec.action.Reset();
  rec.next_free = free_head_;
  free_head_ = static_cast<std::uint32_t>(slot);
  heap_pos_[slot] = kNotQueued;
}

void Simulator::Place(std::size_t pos, const HeapKey& key) {
  heap_[pos] = key;
  heap_pos_[EventSlotOf(key.id)] = static_cast<std::uint32_t>(pos);
}

void Simulator::SiftUp(std::size_t pos, HeapKey key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(key < heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void Simulator::RemoveAt(std::size_t pos) {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;  // the removed key was the last one
  // Walk the hole down to a leaf along the smallest children, then sift
  // the last key up from there.  The last key is usually among the
  // latest, so it rarely climbs, and the descent skips comparing it at
  // every level.
  for (;;) {
    const std::size_t first = kArity * pos + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  SiftUp(pos, last);
}

EventId Simulator::ScheduleAt(double time, Action action) {
  Require(time >= now_, "cannot schedule into the past");
  Require(static_cast<bool>(action), "event action must be callable");
  Require(next_seq_ <= kMaxSequence, "event sequence space exhausted");
  const std::uint32_t slot = AcquireSlot();
  const EventId id = (next_seq_++ << kEventSlotBits) | slot;
  slab_[slot].action = std::move(action);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, {time, id});
  if (heap_.size() > live_hwm_) live_hwm_ = heap_.size();
  return id;
}

EventId Simulator::ScheduleAfter(double delay, Action action) {
  Require(delay >= 0.0, "delay must be >= 0");
  return ScheduleAt(now_ + delay, std::move(action));
}

bool Simulator::Cancel(EventId id) {
  const std::size_t slot = EventSlotOf(id);
  if (slot >= heap_pos_.size()) return false;
  const std::uint32_t pos = heap_pos_[slot];
  // A free slot has no heap position, and a reused slot's key carries a
  // later sequence, so stale handles — and the reserved id 0 — never match.
  if (pos == kNotQueued || heap_[pos].id != id) return false;
  RemoveAt(pos);
  ReleaseSlot(slot);
  ++cancelled_;
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const HeapKey next = heap_.front();
  RemoveAt(0);
  now_ = next.time;
  const std::size_t slot = EventSlotOf(next.id);
  // Move the action out and recycle the slot *before* invoking, so the
  // callback can schedule (possibly into this very slot) and the new
  // occupant's id — with a fresh sequence — can never alias the old one.
  Action action = std::move(slab_[slot].action);
  ReleaseSlot(slot);
  ++processed_;
  action();
  return true;
}

void Simulator::RunUntil(double until) {
  Require(until >= now_, "horizon is in the past");
  while (!heap_.empty() && heap_.front().time <= until) {
    Step();
  }
  now_ = until;
}

void Simulator::RunToCompletion() {
  while (Step()) {
  }
}

}  // namespace wsn::des
