#include "sim/event_queue.hpp"

#include <algorithm>
#include <string>

#include "sim/error.hpp"

namespace slowcc::sim {

// Reserved past the few dozen timers a trial keeps pending.
EventQueue::EventQueue() { heap_.reserve(kInitialHeapCapacity); }

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next_free;
    pool_[idx].next_free = kNil;
    return idx;
  }
  if (pool_.size() > kMaxNodes) {
    throw SimError(SimErrc::kBadSchedule, "EventQueue",
                   "event node pool exhausted (more than 2^24 "
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
  n.cb = nullptr;  // drop the closure now, not at pool destruction
  ++n.gen;
  n.pos = kNil;
  n.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, e);
}

void EventQueue::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    put(pos, heap_[child]);
    pos = child;
  }
  put(pos, e);
}

void EventQueue::place(std::size_t pos, const Entry& e) {
  if (pos > 0 && before(e, heap_[(pos - 1) / 2])) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the removed entry was the last one
  place(pos, last);  // the last entry fills the hole
}

void EventQueue::throw_empty(const char* op) {
  throw SimError(SimErrc::kBadSchedule, "EventQueue",
                 std::string(op) + " on a queue with no live events");
}

EventId EventQueue::schedule(Time at, Callback cb) {
  const std::uint32_t idx = alloc_node();
  pool_[idx].cb = std::move(cb);
  const Entry e{at.as_nanos(), next_seq_++, idx};
  heap_.push_back(e);  // slowcc-lint: allow(no-hot-path-alloc) heap reserved at construction; growth amortized
  sift_up(heap_.size() - 1, e);
  return EventId((std::uint64_t{pool_[idx].gen} << 24) |
                 (std::uint64_t{idx} + 1));
}

std::uint32_t EventQueue::live_node(EventId id) const noexcept {
  const std::uint64_t raw = id.id_;
  if (raw == 0) return kNil;
  const std::uint32_t idx = static_cast<std::uint32_t>(raw & 0xffffffu) - 1;
  const auto gen = static_cast<std::uint32_t>(raw >> 24);
  if (idx >= pool_.size()) return kNil;
  const Node& n = pool_[idx];
  // A generation mismatch means the node was reclaimed and reused: the
  // caller's id refers to an event that already fired or was cancelled.
  if (n.gen != gen || n.pos == kNil) return kNil;
  return idx;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t idx = live_node(id);
  if (idx == kNil) return false;
  remove_at(pool_[idx].pos);
  release_node(idx);
  return true;
}

bool EventQueue::reschedule(EventId id, Time at) {
  const std::uint32_t idx = live_node(id);
  if (idx == kNil) return false;
  // The seq is minted where schedule would mint it, so the moved entry
  // orders exactly as a cancelled one's fresh replacement would.
  place(pool_[idx].pos, Entry{at.as_nanos(), next_seq_++, idx});
  return true;
}

EventQueue::Callback EventQueue::pop(PoppedEvent* out) {
  if (heap_.empty()) throw_empty("pop");
  const Entry top = heap_.front();
  remove_at(0);
  Callback cb = std::move(pool_[top.node].cb);
  if (out != nullptr) *out = PoppedEvent{Time::nanos(top.at_ns), top.seq};
  release_node(top.node);
  return cb;
}

std::vector<Time> EventQueue::pending_times(std::size_t max_entries) const {
  std::vector<Time> times;
  times.reserve(heap_.size());
  for (const Entry& e : heap_) times.push_back(Time::nanos(e.at_ns));
  std::sort(times.begin(), times.end());
  if (times.size() > max_entries) times.resize(max_entries);
  return times;
}

}  // namespace slowcc::sim
