#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Priority queue of timestamped callbacks: a hierarchical timer wheel.
///
/// Contract (checked against the ordered-map reference scheduler in
/// tests/reference_scheduler.hpp by tests/engine_diff.hpp):
///   - events fire in (at, seq) order; seq is FIFO at equal times, which
///     keeps simulations deterministic
///   - cancel is a no-op for fired, cancelled, or stale ids
///   - next_time()/peek()/pop() throw SimError(kBadSchedule) when no
///     live event remains (an all-cancelled queue is "empty" too)
///
/// Layout: kLevels wheels of kSlots slots each. Level L buckets events
/// by bits [kBaseShift + 8L, kBaseShift + 8(L+1)) of their absolute
/// nanosecond timestamp, so level 0 slots span 2^12 ns (~4 us) and the
/// whole hierarchy covers 2^44 ns (~4.9 h) past the dispatch horizon;
/// anything farther sits in a far-future overflow min-heap and is
/// batch-migrated into the wheels when the horizon approaches.
///
/// Dispatch keeps one invariant: every live event with timestamp below
/// `horizon_` has been moved into `due_`, a (time, seq) min-heap of
/// 24-byte POD entries. next_time()/pop() serve from `due_`; when it
/// runs dry the cursor advances slot by slot — level-0 slots drain into
/// `due_` (sorted there by the heap), higher-level slots cascade their
/// list down one level, and an empty hierarchy jumps the horizon to the
/// overflow minimum. Because `due_` is a real heap, a zero-delay event
/// scheduled *behind* the horizon from inside a callback still fires in
/// exact (at, seq) order.
///
/// Event entries live in a free-list pool indexed by uint32, so a
/// schedule/cancel/fire cycle reuses nodes instead of allocating, and
/// slot membership is a doubly-linked intrusive list: cancelling a
/// wheel-resident event unlinks and reclaims it in O(1). Events already
/// staged in `due_` or the overflow heap cannot be unlinked from the
/// middle of a heap, so cancellation tombstones them in place and the
/// pop path discards them. EventIds pack (generation << 24 | slot + 1),
/// so stale ids from reused nodes are rejected by generation mismatch.
class EventQueue {
 public:
  // The public callback type IS the API boundary the hot-path rule
  // carves out; the queue pools the POD *entries* around it.
  // slowcc-lint: allow(no-std-function-hot-path) API-boundary callback type
  using Callback = std::function<void()>;

  /// Size diagnostics for tests and capacity monitoring.
  struct Stats {
    std::size_t stored = 0;      // entries held, live + tombstoned
    std::size_t tombstones = 0;  // cancelled entries not yet reclaimed
    std::size_t capacity = 0;    // node pool size, in entries
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

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event. Non-const because the
  /// cursor may advance (the result is still observably pure).
  [[nodiscard]] Time next_time();

  /// (at, seq) of the earliest live event without popping it. The run
  /// loop uses this to merge chained drain sub-events (see
  /// sim/simulator.hpp) into the queue's (at, seq) total order. Inline
  /// while a live event tops the due heap (the common case, once per
  /// executed event); otherwise the cursor advances out of line.
  [[nodiscard]] PoppedEvent peek() {
    if (!due_.empty()) {
      const HeapEntry& top = due_.front();
      if (!pool_[top.node].cancelled) {
        return PoppedEvent{Time::nanos(top.at_ns), top.seq};
      }
    }
    return peek_slow();
  }

  /// Pop the earliest live event's callback; `out` (optional) receives
  /// its (at, seq), which Simulator folds into its trace digest.
  [[nodiscard]] Callback pop(PoppedEvent* out);

  /// Consume the next FIFO sequence number WITHOUT storing an event.
  /// Chain sources (the sim::Lane entries net::Link posts) mint seqs
  /// at exactly the points an unbatched schedule would call schedule(),
  /// so the executed (at, seq) stream — and every golden trace digest — is
  /// bit-identical whether a departure runs as a queued event or as a
  /// chained sub-event. Minted seqs never materialize a node, so no
  /// EventId can refer to them.
  [[nodiscard]] std::uint64_t mint_seq() noexcept { return next_seq_++; }

  /// Timestamps of the earliest live events, ascending, at most
  /// `max_entries` of them. O(n log n); meant for diagnostic dumps
  /// (Watchdog), not hot paths.
  [[nodiscard]] std::vector<Time> pending_times(std::size_t max_entries) const;

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{stored_, tombstones_, pool_.size()};
  }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256 per level
  static constexpr int kLevels = 4;
  static constexpr int kBaseShift = 12;  // level-0 slot = 4096 ns
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kMaxNodes = (1u << 24) - 2;
  static constexpr std::size_t kInitialHeapCapacity = 1024;

  enum class Loc : std::uint8_t {
    kFree,      // on the free list
    kSlot,      // linked into a wheel slot
    kDue,       // staged in the due_ heap
    kOverflow,  // parked in the far-future heap
  };

  struct Node {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;   // bumped on reclaim; stale ids mismatch
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint16_t slot_level = 0;
    std::uint16_t slot_index = 0;
    Loc loc = Loc::kFree;
    bool cancelled = false;
    Callback cb;
  };

  /// Heap entry for due_/overflow_: POD so sift operations never move a
  /// std::function.
  struct HeapEntry {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint32_t alloc_node();
  void release_node(std::uint32_t idx);
  void link_slot(std::uint32_t idx, int level, int slot);
  void unlink_slot(std::uint32_t idx);
  /// Route a node to due_/wheel/overflow by its timestamp vs horizon_.
  void place(std::uint32_t idx);
  /// Earliest occupied slot at `level` at or after the horizon; returns
  /// false when the level is empty. `*slot` is the bucket index,
  /// `*start_ns` the absolute start of its span.
  [[nodiscard]] bool first_occupied(int level, int* slot,
                                    std::int64_t* start_ns) const;
  /// Move overflow entries with at <= `last_ns` into the wheels
  /// (inclusive, so the bound stays representable at INT64_MAX).
  /// Returns the number migrated.
  std::size_t drain_overflow_through(std::int64_t last_ns);
  /// One step of cursor progress: drain a level-0 slot into due_,
  /// cascade a higher slot down, or migrate from overflow.
  void advance();
  /// Ensure due_ is topped by a live event (or nothing is live at all).
  void settle();
  [[nodiscard]] PoppedEvent peek_slow();
  [[noreturn]] void throw_empty(const char* op) const;

  std::array<std::array<std::uint32_t, kSlots>, kLevels> slot_head_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occupied_;
  std::int64_t horizon_ = 0;
  std::vector<HeapEntry> due_;
  std::vector<HeapEntry> overflow_;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t stored_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace slowcc::sim
