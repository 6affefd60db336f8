#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace slowcc::sim {

/// Opaque handle to a scheduled event, used for cancellation. The raw
/// value packs a pool slot and a generation counter, so ids must never
/// be compared across queues.
class EventId {
 public:
  constexpr EventId() noexcept : id_(0) {}
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;

 private:
  friend class EventQueue;
  explicit constexpr EventId(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_;
};

/// Timestamp + FIFO sequence number of a popped event. `seq` is
/// assigned at schedule() time (1, 2, 3, ... per queue) and breaks ties
/// among equal timestamps, so the executed (at, seq) stream is the
/// observable the golden-trace digests pin.
struct PoppedEvent {
  Time at;
  std::uint64_t seq = 0;
};

/// FNV-1a (64-bit) folding of one value into a running hash, byte-wise
/// little-endian. Used by Simulator::trace_digest() and the golden-trace
/// tests; kept here so tools can reproduce digests bit-for-bit.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t hash,
                                                std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Priority queue of timestamped callbacks: an indexed binary min-heap.
///
/// Contract (checked against the ordered-map reference scheduler in
/// tests/reference_scheduler.hpp by tests/engine_diff.hpp):
///   - events fire in (at, seq) order; seq is FIFO at equal times, which
///     keeps simulations deterministic
///   - cancel is a no-op for fired, cancelled, or stale ids
///   - next_time()/peek()/pop() throw SimError(kBadSchedule) when no
///     live event remains
///
/// Layout: the heap is a vector of 24-byte POD {at_ns, seq, node}
/// entries, so a sift never moves a std::function. The callbacks live
/// in a free-list node pool indexed by uint32; each node records its
/// entry's heap position, which every sift move rewrites. cancel uses
/// that position to remove the entry at once (the last entry fills the
/// hole and sifts up or down), so the heap holds only live events.
/// reschedule moves a live entry in place: it mints a fresh seq exactly
/// where schedule would, overwrites the entry's (at, seq) and sifts it
/// up or down, keeping the node, its callback and its EventId. Since a
/// cancel + schedule also mints exactly one seq at that point, and the
/// heap orders by (at, seq) alone, both leave the executed (at, seq)
/// stream identical.
/// EventIds pack (generation << 24 | slot + 1): a node's generation is
/// bumped when it is reclaimed, so stale ids from reused nodes mismatch.
///
/// Lanes carry every per-hop event (sim/lane.hpp); this queue holds only
/// agent, traffic and monitor timers, a few dozen at a time.
class EventQueue {
 public:
  // The public callback type IS the API boundary the hot-path rule
  // carves out; the queue pools the POD *entries* around it.
  // slowcc-lint: allow(no-std-function-hot-path) API-boundary callback type
  using Callback = std::function<void()>;

  /// Size diagnostics for tests and capacity monitoring.
  struct Stats {
    std::size_t stored = 0;    // entries held in the heap
    std::size_t capacity = 0;  // node pool size, in entries
  };

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` at absolute time `at`. Returns a handle usable with
  /// `cancel`.
  EventId schedule(Time at, Callback cb);

  /// Cancel a previously scheduled event. Returns true when a pending
  /// event was actually cancelled; a fired, cancelled or default id is
  /// a harmless no-op.
  bool cancel(EventId id);

  /// Move a pending event to absolute time `at` under a fresh seq, as
  /// cancel + schedule of the same callback would order it, but keep
  /// its node, callback and EventId. Returns false (and changes
  /// nothing) for a fired, cancelled or default id.
  bool reschedule(EventId id, Time at);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Number of live events (the heap holds no cancelled ones).
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest live event.
  [[nodiscard]] Time next_time() const {
    if (heap_.empty()) throw_empty("next_time");
    return Time::nanos(heap_.front().at_ns);
  }

  /// (at, seq) of the earliest live event without popping it. The run
  /// loop merges it with the lane heads once per executed event.
  [[nodiscard]] PoppedEvent peek() const {
    if (heap_.empty()) throw_empty("peek");
    return PoppedEvent{Time::nanos(heap_.front().at_ns), heap_.front().seq};
  }

  /// Pop the earliest live event's callback; `out` (optional) receives
  /// its (at, seq).
  [[nodiscard]] Callback pop(PoppedEvent* out);

  /// Consume the next FIFO sequence number WITHOUT storing an event.
  /// sim::Lane posts (net::Link's per-hop events) draw their seqs here,
  /// so lane entries and queued events share one (at, seq) total order.
  /// Minted seqs never materialize a node; no EventId refers to them.
  [[nodiscard]] std::uint64_t mint_seq() noexcept { return next_seq_++; }

  /// Timestamps of the earliest live events, ascending, at most
  /// `max_entries` of them. O(n log n); meant for diagnostics and
  /// tests, not hot paths.
  [[nodiscard]] std::vector<Time> pending_times(std::size_t max_entries) const;

  /// When the pending event `id` will fire; nullopt for a fired,
  /// cancelled or default id. For audits (fault::InvariantAuditor).
  [[nodiscard]] std::optional<Time> pending_time(EventId id) const noexcept {
    const std::uint32_t idx = live_node(id);
    if (idx == kNil) return std::nullopt;
    return Time::nanos(heap_[pool_[idx].pos].at_ns);
  }

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{heap_.size(), pool_.size()};
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kMaxNodes = (1u << 24) - 2;
  static constexpr std::size_t kInitialHeapCapacity = 256;

  struct Node {
    std::uint32_t gen = 1;           // bumped on reclaim; stale ids mismatch
    std::uint32_t pos = kNil;        // heap index; kNil while free
    std::uint32_t next_free = kNil;  // free-list link
    Callback cb;
  };

  struct Entry {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t node;
  };
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.at_ns != b.at_ns ? a.at_ns < b.at_ns : a.seq < b.seq;
  }

  /// Node index of a pending event's id, or kNil for a fired,
  /// cancelled, stale or default one.
  [[nodiscard]] std::uint32_t live_node(EventId id) const noexcept;
  [[nodiscard]] std::uint32_t alloc_node();
  void release_node(std::uint32_t idx);
  /// Write `e` at heap index `pos` and record the position in its node.
  void put(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    pool_[e.node].pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  /// Sift `e`, written into heap index `pos`, up or down to its place.
  void place(std::size_t pos, const Entry& e);
  /// Remove the entry at heap index `pos`; its node stays allocated.
  void remove_at(std::size_t pos);
  [[noreturn]] static void throw_empty(const char* op);

  std::vector<Entry> heap_;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 1;
};

}  // namespace slowcc::sim
