#include "net/packet_pool.hpp"

#include <string>

#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

// One pool per (thread, Simulator). A flat vector scanned linearly:
// a thread runs a handful of simulators at a time (usually one), and
// entries are erased by the guard attached to each Simulator, so the
// list never outgrows the live-simulator count.
struct PoolEntry {
  sim::Simulator* sim;
  std::unique_ptr<PacketPool> pool;
};
thread_local std::vector<PoolEntry> t_pools;

void forget_pool(sim::Simulator* sim) noexcept {
  for (std::size_t i = 0; i < t_pools.size(); ++i) {
    if (t_pools[i].sim == sim) {
      t_pools.erase(t_pools.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace

PacketPool& PacketPool::of(sim::Simulator& sim) {
  for (PoolEntry& e : t_pools) {
    if (e.sim == &sim) return *e.pool;
  }
  t_pools.push_back(PoolEntry{&sim, std::make_unique<PacketPool>()});
  PacketPool& pool = *t_pools.back().pool;
  // The governor's packet model is this pool's live count and bytes.
  sim.governor().count_packets(&pool.live_, &pool.live_bytes_);
  // The guard unregisters the pool at the head of ~Simulator — after
  // every component (links, queues, agents) has died, because they are
  // always declared after the Simulator they reference.
  sim::Simulator* key = &sim;
  sim.attach_guard(std::shared_ptr<void>(
      static_cast<void*>(key), [](void* s) {
        auto* sim = static_cast<sim::Simulator*>(s);
        sim->governor().count_packets(nullptr, nullptr);
        forget_pool(sim);
      }));
  return pool;
}

void PacketPool::throw_stale(PacketHandle h, const char* op) const {
  throw sim::SimError(
      sim::SimErrc::kInvariantViolation, "PacketPool",
      std::string(op) + ": stale packet handle (slot " +
          std::to_string(h.slot) + ", gen " + std::to_string(h.gen) +
          ") — released, recycled, or from another pool");
}

bool PacketPool::is_live(PacketHandle h) const noexcept {
  if (h.slot >= capacity()) return false;
  const Slot& s = slot_at(h.slot);
  return s.gen == h.gen && s.next_free == kLiveMark;
}

void PacketPool::add_chunk() {
  const std::size_t base = capacity();
  if (base + kChunkSlots > kMaxSlots) {
    throw sim::SimError(sim::SimErrc::kResourceExhausted, "PacketPool",
                        "pool exceeds " + std::to_string(kMaxSlots) +
                            " slots — packet leak or runaway scenario");
  }
  // Growth happens only when the live high-water mark rises (warm-up);
  // the steady-state acquire/release cycle is free-list swaps.
  // slowcc-lint: allow(no-hot-path-alloc) warm-up growth only; chunked so existing Packet& stay valid
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  Slot* chunk = chunks_.back().get();
  for (std::uint32_t i = kChunkSlots; i-- > 0;) {
    chunk[i].next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(base) + i;
  }
}

void PacketPool::reserve(std::size_t slots) {
  while (capacity() < slots) add_chunk();
}

PooledPacket PacketPool::acquire(const Packet& p) {
  if (free_head_ == PacketHandle::kInvalidSlot) add_chunk();
  const std::uint32_t idx = free_head_;
  Slot& s = slot_at(idx);
  free_head_ = s.next_free;
  s.next_free = kLiveMark;
  s.packet = p;
  ++live_;
  live_bytes_ += static_cast<std::uint64_t>(s.packet.size_bytes);
  return PooledPacket{PacketHandle{idx, s.gen}, s.packet};
}

void PacketPool::release(PacketHandle h) {
  Slot& s = live_slot(h, "release");
  // Back onto the free list, staling every handle to the slot.
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = h.slot;
  --live_;
  live_bytes_ -= static_cast<std::uint64_t>(s.packet.size_bytes);
}

}  // namespace slowcc::net
