#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/error.hpp"

namespace slowcc::sim {

namespace {
// Last nanosecond of the top-level wheel's reach from `horizon`
// (inclusive): 256 top-level slots starting at the one containing the
// horizon. This — not horizon + 2^44 — is the exact bound at or below
// which place() is guaranteed to land in a wheel slot; when the
// horizon sits mid-way through a top-level slot the two differ, and
// migrating past the cover would bounce entries straight back into
// the overflow heap. Inclusive so the bound saturates exactly at
// INT64_MAX instead of needing an unrepresentable exclusive end.
[[nodiscard]] std::int64_t wheel_cover_last(std::int64_t horizon) noexcept {
  constexpr int kTopShift = 12 + 8 * 3;  // kBaseShift + kSlotBits * (kLevels-1)
  const std::int64_t top_word = horizon >> kTopShift;
  constexpr std::int64_t kMaxWord =
      std::numeric_limits<std::int64_t>::max() >> kTopShift;
  if (top_word + 256 > kMaxWord) return std::numeric_limits<std::int64_t>::max();
  return ((top_word + 256) << kTopShift) - 1;
}
}  // namespace

EventQueue::EventQueue() {
  for (auto& level : slot_head_) level.fill(kNil);
  for (auto& level : occupied_) level.fill(0);
  // Reserve staging capacity so the drain path (settle/place) only
  // allocates when a run outgrows it; growth past the reservation is
  // geometric, amortized O(1) per event.
  due_.reserve(kInitialHeapCapacity);
  overflow_.reserve(kInitialHeapCapacity);
}

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    pool_[idx].next = kNil;
    return idx;
  }
  if (pool_.size() > kMaxNodes) {
    throw SimError(SimErrc::kBadSchedule, "EventQueue",
                   "timer-wheel node pool exhausted (more than 2^24 "
                   "concurrently pending events)");
  }
  // Grows only to the pending-event high-water mark (warm-up); after
  // that every node comes off the free list above.
  // slowcc-lint: allow(no-hot-path-alloc) warm-up growth only
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void EventQueue::release_node(std::uint32_t idx) {
  Node& n = pool_[idx];
  if (n.cancelled) {
    n.cancelled = false;
    --tombstones_;
  }
  n.cb = nullptr;  // drop the closure now, not at pool destruction
  n.loc = Loc::kFree;
  ++n.gen;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
  --stored_;
}

void EventQueue::link_slot(std::uint32_t idx, int level, int slot) {
  Node& n = pool_[idx];
  n.loc = Loc::kSlot;
  n.slot_level = static_cast<std::uint16_t>(level);
  n.slot_index = static_cast<std::uint16_t>(slot);
  n.prev = kNil;
  n.next = slot_head_[static_cast<std::size_t>(level)]
                     [static_cast<std::size_t>(slot)];
  if (n.next != kNil) pool_[n.next].prev = idx;
  slot_head_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)] =
      idx;
  occupied_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot) >>
                                             6] |=
      std::uint64_t{1} << (slot & 63);
}

void EventQueue::unlink_slot(std::uint32_t idx) {
  Node& n = pool_[idx];
  const auto level = static_cast<std::size_t>(n.slot_level);
  const auto slot = static_cast<std::size_t>(n.slot_index);
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    slot_head_[level][slot] = n.next;
  }
  if (n.next != kNil) pool_[n.next].prev = n.prev;
  if (slot_head_[level][slot] == kNil) {
    occupied_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
}

void EventQueue::place(std::uint32_t idx) {
  Node& n = pool_[idx];
  const std::int64_t at_ns = n.at.as_nanos();
  if (at_ns < horizon_) {
    // The slot spanning this timestamp was already drained (zero-delay
    // reschedule from a callback, or a schedule below a jumped cursor):
    // stage straight into the due heap, which restores exact ordering.
    n.loc = Loc::kDue;
    due_.push_back(HeapEntry{at_ns, n.seq, idx});  // slowcc-lint: allow(no-hot-path-alloc) due heap reserved at construction; growth amortized
    std::push_heap(due_.begin(), due_.end(), HeapLater{});
    return;
  }
  const auto at_u = static_cast<std::uint64_t>(at_ns);
  const auto hor_u = static_cast<std::uint64_t>(horizon_);
  for (int level = 0; level < kLevels; ++level) {
    const int shift = kBaseShift + kSlotBits * level;
    if ((at_u >> shift) - (hor_u >> shift) < kSlots) {
      link_slot(idx, level, static_cast<int>((at_u >> shift) & (kSlots - 1)));
      return;
    }
  }
  n.loc = Loc::kOverflow;
  overflow_.push_back(HeapEntry{at_ns, n.seq, idx});  // slowcc-lint: allow(no-hot-path-alloc) far-future overflow heap; reserved at construction, growth amortized
  std::push_heap(overflow_.begin(), overflow_.end(), HeapLater{});
}

bool EventQueue::first_occupied(int level, int* slot,
                                    std::int64_t* start_ns) const {
  const int shift = kBaseShift + kSlotBits * level;
  const std::uint64_t cur_word = static_cast<std::uint64_t>(horizon_) >> shift;
  const int start_bit = static_cast<int>(cur_word & (kSlots - 1));
  const auto& occ = occupied_[static_cast<std::size_t>(level)];
  constexpr int kWords = kSlots / 64;
  int found = -1;
  // Circular scan: visiting kWords + 1 64-bit words (masking the first
  // and last) covers exactly the 256-slot window starting at start_bit.
  for (int k = 0; k <= kWords; ++k) {
    const int word_i = ((start_bit >> 6) + k) & (kWords - 1);
    std::uint64_t bits = occ[static_cast<std::size_t>(word_i)];
    if (k == 0) {
      bits &= ~std::uint64_t{0} << (start_bit & 63);
    } else if (k == kWords) {
      const int cut = start_bit & 63;
      bits &= cut != 0 ? (std::uint64_t{1} << cut) - 1 : 0;
    }
    if (bits != 0) {
      found = (word_i << 6) + std::countr_zero(bits);
      break;
    }
  }
  if (found < 0) return false;
  const std::uint64_t word =
      cur_word + static_cast<std::uint64_t>((found - start_bit + kSlots) &
                                            (kSlots - 1));
  *slot = found;
  *start_ns = static_cast<std::int64_t>(word << shift);
  return true;
}

std::size_t EventQueue::drain_overflow_through(std::int64_t last_ns) {
  std::size_t moved = 0;
  while (!overflow_.empty() && overflow_.front().at_ns <= last_ns) {
    std::pop_heap(overflow_.begin(), overflow_.end(), HeapLater{});
    const HeapEntry e = overflow_.back();
    overflow_.pop_back();
    if (pool_[e.node].cancelled) {
      release_node(e.node);
    } else {
      place(e.node);
    }
    ++moved;
  }
  return moved;
}

void EventQueue::advance() {
  int best_level = -1;
  int best_slot = 0;
  std::int64_t best_start = 0;
  for (int level = 0; level < kLevels; ++level) {
    int slot = 0;
    std::int64_t start = 0;
    if (!first_occupied(level, &slot, &start)) continue;
    // On equal starts the HIGHER level must win: its slot spans the
    // lower slot's whole region and may hold earlier events, so it has
    // to cascade down before anything at that start is drained.
    if (best_level < 0 || start <= best_start) {
      best_level = level;
      best_slot = slot;
      best_start = start;
    }
  }

  if (best_level < 0) {
    // Every wheel is empty: jump the horizon to the overflow minimum.
    if (overflow_.empty()) return;
    const std::int64_t top_ns = overflow_.front().at_ns;
    horizon_ = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(top_ns) >> kBaseShift) << kBaseShift);
    // The minimum lands in level 0, and the inclusive cover bound
    // saturates exactly at INT64_MAX, so even far-future sentinel
    // timestamps migrate — progress is guaranteed.
    drain_overflow_through(wheel_cover_last(horizon_));
    return;
  }

  const int shift = kBaseShift + kSlotBits * best_level;
  // Work with the slot's last covered nanosecond, not its exclusive
  // end: for the slot abutting INT64_MAX the nominal end is
  // INT64_MAX + 1, and computing that in signed arithmetic is UB. The
  // last covered nanosecond is always a representable timestamp.
  constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
  const std::int64_t slot_last = best_start + ((std::int64_t{1} << shift) - 1);
  // Overflow entries parked relative to an older horizon can fall
  // within a slot chosen now; migrate them first so ordering stays
  // exact.
  if (drain_overflow_through(slot_last) > 0) return;

  std::uint32_t idx = slot_head_[static_cast<std::size_t>(best_level)]
                                [static_cast<std::size_t>(best_slot)];
  slot_head_[static_cast<std::size_t>(best_level)]
            [static_cast<std::size_t>(best_slot)] = kNil;
  occupied_[static_cast<std::size_t>(best_level)]
           [static_cast<std::size_t>(best_slot) >> 6] &=
      ~(std::uint64_t{1} << (best_slot & 63));

  if (best_level == 0) {
    // Drain the slot into the due heap; the heap re-establishes exact
    // (at, seq) order among the slot's entries. Saturate the horizon
    // at INT64_MAX instead of wrapping: events scheduled at exactly
    // INT64_MAX afterwards re-enter the top slot (at >= horizon_) and
    // the due heap restores exact order among them on the next drain.
    horizon_ = slot_last < kMaxNs ? slot_last + 1 : kMaxNs;
    while (idx != kNil) {
      Node& n = pool_[idx];
      const std::uint32_t next = n.next;
      n.prev = kNil;
      n.next = kNil;
      n.loc = Loc::kDue;
      due_.push_back(HeapEntry{n.at.as_nanos(), n.seq, idx});  // slowcc-lint: allow(no-hot-path-alloc) due heap reserved at construction; growth amortized
      std::push_heap(due_.begin(), due_.end(), HeapLater{});
      idx = next;
    }
  } else {
    // Cascade one higher-level slot down; every entry re-places at a
    // strictly lower level because the slot spans exactly 256 slots of
    // the level below.
    horizon_ = best_start;
    while (idx != kNil) {
      const std::uint32_t next = pool_[idx].next;
      pool_[idx].prev = kNil;
      pool_[idx].next = kNil;
      place(idx);
      idx = next;
    }
  }
}

void EventQueue::settle() {
  for (;;) {
    while (!due_.empty()) {
      if (!pool_[due_.front().node].cancelled) return;
      std::pop_heap(due_.begin(), due_.end(), HeapLater{});
      const std::uint32_t idx = due_.back().node;
      due_.pop_back();
      release_node(idx);
    }
    if (live_ == 0) return;
    advance();
  }
}

void EventQueue::throw_empty(const char* op) const {
  throw SimError(SimErrc::kBadSchedule, "EventQueue",
                 std::string(op) +
                     " on a queue with no live events (empty or "
                     "all-cancelled)");
}

EventId EventQueue::schedule(Time at, Callback cb) {
  const std::uint32_t idx = alloc_node();
  {
    Node& n = pool_[idx];
    n.at = at;
    n.seq = next_seq_++;
    n.cb = std::move(cb);
    n.cancelled = false;
  }
  place(idx);
  ++live_;
  ++stored_;
  return EventId((std::uint64_t{pool_[idx].gen} << 24) |
                 (std::uint64_t{idx} + 1));
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t raw = id.id_;
  if (raw == 0) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>(raw & 0xffffffu) - 1;
  const auto gen = static_cast<std::uint32_t>(raw >> 24);
  if (idx >= pool_.size()) return false;
  Node& n = pool_[idx];
  // A generation mismatch means the node was reclaimed and reused: the
  // caller's id refers to an event that already fired or was cancelled.
  if (n.gen != gen || n.loc == Loc::kFree || n.cancelled) return false;
  --live_;
  if (n.loc == Loc::kSlot) {
    // In-place cancellation: unlink from the slot list and reclaim now.
    unlink_slot(idx);
    n.prev = kNil;
    n.next = kNil;
    release_node(idx);
  } else {
    // Heap-resident (due/overflow) entries cannot be unlinked from the
    // middle of a heap: tombstone in place, reclaimed on pop/migrate.
    n.cancelled = true;
    ++tombstones_;
  }
  return true;
}

Time EventQueue::next_time() {
  settle();
  if (due_.empty()) throw_empty("next_time");
  return Time::nanos(due_.front().at_ns);
}

PoppedEvent EventQueue::peek_slow() {
  settle();
  if (due_.empty()) throw_empty("peek");
  return PoppedEvent{Time::nanos(due_.front().at_ns), due_.front().seq};
}

EventQueue::Callback EventQueue::pop(PoppedEvent* out) {
  settle();
  if (due_.empty()) throw_empty("pop");
  std::pop_heap(due_.begin(), due_.end(), HeapLater{});
  const HeapEntry e = due_.back();
  due_.pop_back();
  Node& n = pool_[e.node];
  Callback cb = std::move(n.cb);
  if (out != nullptr) *out = PoppedEvent{n.at, n.seq};
  release_node(e.node);
  --live_;
  return cb;
}

std::vector<Time> EventQueue::pending_times(std::size_t max_entries) const {
  std::vector<Time> times;
  times.reserve(live_);
  for (const Node& n : pool_) {
    if (n.loc != Loc::kFree && !n.cancelled) times.push_back(n.at);
  }
  std::sort(times.begin(), times.end());
  if (times.size() > max_entries) times.resize(max_entries);
  return times;
}

}  // namespace slowcc::sim
