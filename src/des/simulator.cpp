#include "des/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
  far_.emplace_back();
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

inline void Simulator::Push(const HeapKey& key) {
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, key);
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
  const HeapKey key{time, id};
  if (far_on_ && Defer(key)) {
    ++deferred_;
  } else {
    Push(key);
    if (heap_.size() > engage_above_) Engage();
  }
  live_hwm_ = std::max<std::uint64_t>(live_hwm_, PendingEvents());
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
  // A free slot has no position, and a reused slot's key carries a later
  // sequence, so stale handles — and the reserved id 0 — never match.
  if (pos == kNotQueued) return false;
  if (pos == kFar) {
    if (far_[slot].key.id != id) return false;
    Unlink(slot);
  } else {
    if (heap_[pos].id != id) return false;
    RemoveAt(pos);
  }
  ReleaseSlot(slot);
  ++cancelled_;
  return true;
}

bool Simulator::Defer(const HeapKey& key) {
  // Compare q itself, never a bucket boundary time recomputed from it:
  // q is monotone in the time, so the tiers never disagree with the
  // (time, id) order.  +inf and overflowing q land in the overflow list.
  const double q = (key.time - start_) / width_;
  if (q < near_limit_) return false;
  Link(key, q < bucket_limit_ ? static_cast<std::size_t>(q)
                              : far_head_.size() - 1);
  return true;
}

void Simulator::Link(const HeapKey& key, std::size_t list) {
  const auto slot = static_cast<std::uint32_t>(EventSlotOf(key.id));
  FarNode& node = far_[slot];
  node.key = key;
  node.prev = kListHead | static_cast<std::uint32_t>(list);
  node.next = far_head_[list];
  if (node.next != kNil) far_[node.next].prev = slot;
  far_head_[list] = slot;
  heap_pos_[slot] = kFar;
  ++far_count_;
}

void Simulator::Unlink(std::size_t slot) {
  const FarNode& node = far_[slot];
  if (node.next != kNil) far_[node.next].prev = node.prev;
  if ((node.prev & kListHead) != 0) {
    far_head_[node.prev & ~kListHead] = node.next;
  } else {
    far_[node.prev].next = node.next;
  }
  --far_count_;
}

void Simulator::Pour(std::size_t list) {
  for (std::uint32_t s = far_head_[list]; s != kNil; s = far_[s].next) {
    Push(far_[s].key);
    --far_count_;
  }
  far_head_[list] = kNil;
}

bool Simulator::Refill() {
  if (!far_on_) return false;
  const std::size_t buckets = far_head_.size() - 1;
  while (++cur_ < buckets) {
    if (far_head_[cur_] != kNil) {
      near_limit_ = static_cast<double>(cur_) + 1.0;
      Pour(cur_);
      return true;
    }
  }
  Partition();  // the epoch is over: re-bucket the overflow list
  return !heap_.empty();
}

void Simulator::Engage() {
  far_on_ = true;
  engage_above_ = std::numeric_limits<std::size_t>::max();
  far_head_.assign(1, kNil);  // just the overflow list
  for (const HeapKey& key : heap_) Link(key, 0);
  heap_.clear();
  Partition();
}

void Simulator::Partition() {
  ++repartitions_;
  // Every pending key is in the overflow list: the heap and the buckets
  // are empty.  Each is filed anew below.
  const std::uint32_t first = far_head_.back();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = kInf;
  double hi = -kInf;
  std::size_t finite = 0;
  for (std::uint32_t s = first; s != kNil; s = far_[s].next) {
    const double t = far_[s].key.time;
    if (t == kInf) continue;
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    ++finite;
  }
  const std::size_t count = far_count_;
  far_count_ = 0;
  // +inf keys wait in the overflow list until only they remain; then
  // the heap takes them, and the far tier engages again only once the
  // heap has doubled, so a standing set of them is not shuttled back and
  // forth on every schedule.
  if (count < kReleaseSize || finite == 0) {
    far_on_ = false;
    engage_above_ = std::max(kEngageSize, 2 * count);
    for (std::uint32_t s = first; s != kNil; s = far_[s].next) {
      Push(far_[s].key);
    }
    return;
  }
  // One bucket per finite key, spanning [lo, hi].  A zero or non-finite
  // width (one distinct time, or a span that underflows) instead sends
  // every key up to hi to the heap: any positive width keeps q monotone.
  const double width = (hi - lo) / static_cast<double>(finite);
  std::size_t buckets = finite + 1;
  if (width > 0.0 && std::isfinite(width)) {
    start_ = lo;
    width_ = width;
  } else {
    start_ = hi;
    width_ = std::numeric_limits<double>::min();
    buckets = 1;
  }
  cur_ = 0;
  near_limit_ = 1.0;
  bucket_limit_ = static_cast<double>(buckets);
  far_head_.assign(buckets + 1, kNil);
  for (std::uint32_t s = first, next = kNil; s != kNil; s = next) {
    next = far_[s].next;  // Defer relinks the node
    const HeapKey key = far_[s].key;
    if (!Defer(key)) Push(key);
  }
}

bool Simulator::Step() {
  if (heap_.empty() && !Refill()) return false;
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
  while ((!heap_.empty() || Refill()) && heap_.front().time <= until) {
    Step();
  }
  now_ = until;
}

}  // namespace wsn::des
