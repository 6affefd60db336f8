#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace slowcc::sim {
class Simulator;
}

namespace slowcc::net {

/// Handle to a pooled Packet: slot index + generation counter, 8 bytes,
/// trivially copyable — small enough that a delivery closure capturing
/// {Link*, PacketHandle} fits std::function's inline buffer, so a link
/// schedules engine deliveries without touching the heap.
///
/// `valid()` means "refers to some slot" (a default-constructed handle
/// does not); whether the slot still holds the same packet is the
/// pool's call — PacketPool::is_live rejects stale generations, which
/// is what makes use-after-release (ABA reuse) detectable instead of
/// silently reading someone else's packet.
struct PacketHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return slot != kInvalidSlot;
  }
  constexpr bool operator==(const PacketHandle&) const noexcept = default;
};

/// A packet just acquired: its handle, and the slot to fill in through
/// without a second checked lookup.
struct PooledPacket {
  PacketHandle handle;
  Packet& packet;
};

/// Generation-counted free-list pool of Packets (the event queue's
/// node-pool idiom applied to the packet path).
///
/// Storage is chunked — a vector of fixed 256-slot slabs — so a Packet&
/// returned by get() stays valid across any number of later acquires:
/// growth adds a chunk, it never moves existing slots. After warm-up the
/// acquire/release cycle is pure free-list pointer swaps; the heap is
/// only touched when the live high-water mark grows.
///
/// Handle invariants:
///  * release() bumps the slot generation, so every outstanding handle
///    to the old occupant goes stale; get()/release() on a stale handle
///    throw SimError(kInvariantViolation) — double-free and ABA bugs
///    surface at the exact misuse site.
///  * live() counts acquired-but-unreleased packets and live_bytes()
///    their summed size_bytes; at simulator teardown both must balance
///    to zero. A packet's size_bytes is fixed once it is pooled: the
///    sum adds it at acquire and subtracts it at release.
///  * The pool of a Simulator (`of`) is the ResourceGovernor's packet
///    model: the governor reads live() and live_bytes() directly.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// The pool shared by every component of `sim`, created on first use
  /// and destroyed with the Simulator (via an attached guard). Keyed
  /// per thread, so concurrent sweep workers never share a pool. The
  /// pool registers its live count and byte sum with `sim.governor()`
  /// and the guard unregisters them.
  [[nodiscard]] static PacketPool& of(sim::Simulator& sim);

  /// Copy `p` into a pooled slot, charging its size_bytes, which is
  /// final from here on. Grows by one chunk when the free list is
  /// empty. The only way a packet enters the pool.
  [[nodiscard]] PooledPacket acquire(const Packet& p);

  /// Access the pooled packet. Throws SimError(kInvariantViolation)
  /// when `h` is stale (released, or its slot was recycled).
  [[nodiscard]] Packet& get(PacketHandle h) {
    return live_slot(h, "get").packet;
  }
  [[nodiscard]] const Packet& get(PacketHandle h) const {
    return const_cast<PacketPool*>(this)->live_slot(h, "get").packet;
  }

  /// Return the slot to the free list and bump its generation, staling
  /// every outstanding handle to it.
  void release(PacketHandle h);

  /// Whether `h` still refers to the packet it was acquired for.
  [[nodiscard]] bool is_live(PacketHandle h) const noexcept;

  /// Acquired-but-unreleased packets.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Sum of the live packets' size_bytes.
  [[nodiscard]] std::uint64_t live_bytes() const noexcept {
    return live_bytes_;
  }

  /// Total slots across all chunks.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * kChunkSlots;
  }

  /// Pre-grow to at least `slots` capacity (warm-up; optional).
  void reserve(std::size_t slots);

 private:
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;  // 256
  static constexpr std::uint32_t kMaxSlots = PacketHandle::kInvalidSlot - 1;
  // next_free of an acquired slot. Slot indices stay below kMaxSlots,
  // so no free-list link ever equals it.
  static constexpr std::uint32_t kLiveMark = kMaxSlots;

  // The check word leads, right beside the header fields a hop reads
  // after its handle check, so both usually share one cache line. The
  // padding keeps the 128-byte slot the per-hop path was measured with.
  struct Slot {
    std::uint32_t gen = 1;  // bumped on release; stale handles mismatch
    std::uint32_t next_free = PacketHandle::kInvalidSlot;  // or kLiveMark
    Packet packet;
    unsigned char pad[128 - 2 * sizeof(std::uint32_t) - sizeof(Packet)];
  };
  static_assert(sizeof(Slot) == 128, "gen + next_free + Packet + padding");

  [[nodiscard]] Slot& slot_at(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t idx) const noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  // Every get/release goes through here: capacity, live mark and
  // generation are all checked. Inline because it runs on every hop;
  // the throw stays out of line.
  [[nodiscard]] Slot& live_slot(PacketHandle h, const char* op) {
    if (h.slot >= capacity()) throw_stale(h, op);
    Slot& s = slot_at(h.slot);
    if (s.gen != h.gen || s.next_free != kLiveMark) throw_stale(h, op);
    return s;
  }
  void add_chunk();
  [[noreturn]] void throw_stale(PacketHandle h, const char* op) const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = PacketHandle::kInvalidSlot;
  std::size_t live_ = 0;
  std::uint64_t live_bytes_ = 0;
};

}  // namespace slowcc::net
