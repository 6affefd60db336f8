#include <gtest/gtest.h>

#include <vector>

#include "net/drop_tail_queue.hpp"
#include "net/packet_pool.hpp"
#include "queue_values.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

Packet make_packet(std::int64_t seq, std::int64_t size = 1000) {
  Packet p;
  p.seq = seq;
  p.size_bytes = size;
  return p;
}

// ====================================================================
// Exhaustion -> growth: the pool grows by whole chunks, and — the
// invariant the zero-copy delivery path leans on — growth never moves
// a live slot, so Packet& references survive it.

TEST(PacketPool, GrowsByChunksWhenTheFreeListRunsDry) {
  PacketPool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  std::vector<PacketHandle> handles;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(pool.acquire(make_packet(i)).handle);
  }
  // 300 live packets need two 256-slot chunks.
  EXPECT_EQ(pool.capacity(), 512u);
  EXPECT_EQ(pool.live(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(pool.get(handles[static_cast<std::size_t>(i)]).seq, i);
  }
}

TEST(PacketPool, GrowthNeverMovesLiveSlots) {
  PacketPool pool;
  const PacketHandle first = pool.acquire(make_packet(42)).handle;
  Packet* const before = &pool.get(first);
  // Force several growth episodes past the first chunk.
  std::vector<PacketHandle> rest;
  for (int i = 0; i < 2000; ++i) {
    rest.push_back(pool.acquire(make_packet(i)).handle);
  }
  EXPECT_EQ(before, &pool.get(first));
  EXPECT_EQ(before->seq, 42);
}

TEST(PacketPool, ReserveWarmsUpCapacityWithoutLivePackets) {
  PacketPool pool;
  pool.reserve(1000);
  EXPECT_GE(pool.capacity(), 1000u);
  EXPECT_EQ(pool.live(), 0u);
  const std::size_t warm = pool.capacity();
  // Acquires inside the reservation must not grow further.
  std::vector<PacketHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(pool.acquire(make_packet(i)).handle);
  }
  EXPECT_EQ(pool.capacity(), warm);
}

TEST(PacketPool, ReleaseRecyclesSlotsInsteadOfGrowing) {
  PacketPool pool;
  const PacketHandle a = pool.acquire(make_packet(1)).handle;
  const std::size_t warm = pool.capacity();
  pool.release(a);
  for (int i = 0; i < 200; ++i) {
    const PacketHandle h = pool.acquire(make_packet(i)).handle;
    pool.release(h);
  }
  EXPECT_EQ(pool.capacity(), warm);
  EXPECT_EQ(pool.live(), 0u);
}

// ====================================================================
// Generation counters: a released slot stales every outstanding handle,
// so ABA reuse is detected at the misuse site instead of silently
// aliasing a different packet.

TEST(PacketPool, StaleHandleDetectedAfterSlotReuse) {
  PacketPool pool;
  const PacketHandle old = pool.acquire(make_packet(1)).handle;
  pool.release(old);
  // The free list hands the same slot back; its generation moved on.
  const PacketHandle fresh = pool.acquire(make_packet(2)).handle;
  ASSERT_EQ(fresh.slot, old.slot);
  EXPECT_NE(fresh.gen, old.gen);
  EXPECT_FALSE(pool.is_live(old));
  EXPECT_TRUE(pool.is_live(fresh));
  EXPECT_THROW((void)pool.get(old), sim::SimError);
  EXPECT_EQ(pool.get(fresh).seq, 2);
}

TEST(PacketPool, DoubleReleaseThrows) {
  PacketPool pool;
  const PacketHandle h = pool.acquire(make_packet(7)).handle;
  pool.release(h);
  EXPECT_THROW(pool.release(h), sim::SimError);
  EXPECT_EQ(pool.live(), 0u);
}

// acquire copies the packet into its slot and hands back that slot, so
// a builder fills the payload in without a second checked lookup.
TEST(PacketPool, AcquireReturnsTheSlotItFilled) {
  PacketPool pool;
  const Packet header = make_packet(5, 640);
  auto [h, p] = pool.acquire(header);
  EXPECT_EQ(&p, &pool.get(h));
  EXPECT_EQ(p.seq, 5);
  EXPECT_EQ(pool.live_bytes(), 640u);
  p.seq = 6;
  EXPECT_EQ(pool.get(h).seq, 6);
  EXPECT_EQ(header.seq, 5) << "the source packet is left alone";
  pool.release(h);
}

TEST(PacketPool, InvalidHandleIsNeverLive) {
  PacketPool pool;
  EXPECT_FALSE(pool.is_live(PacketHandle{}));
  EXPECT_THROW((void)pool.get(PacketHandle{}), sim::SimError);
}

TEST(PacketPool, HandleToAFreeSlotIsRejectedEvenWithItsGeneration) {
  PacketPool pool;
  const PacketHandle h = pool.acquire(make_packet(3)).handle;
  pool.release(h);
  // A handle that names the free slot's current generation: only the
  // slot's live mark tells it from a live packet's handle.
  const PacketHandle forged{h.slot, h.gen + 1};
  EXPECT_FALSE(pool.is_live(forged));
  EXPECT_THROW((void)pool.get(forged), sim::SimError);
  EXPECT_THROW(pool.release(forged), sim::SimError);
  // Never-used slots of a grown chunk are free with generation 1.
  const PacketHandle untouched{h.slot + 1, 1};
  EXPECT_FALSE(pool.is_live(untouched));
  EXPECT_THROW((void)pool.get(untouched), sim::SimError);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

TEST(PacketPool, LiveBytesFollowAcquireAndRelease) {
  PacketPool pool;
  const PacketHandle a = pool.acquire(make_packet(1, 1500)).handle;
  const PacketHandle b = pool.acquire(make_packet(2, 40)).handle;
  EXPECT_EQ(pool.live_bytes(), 1540u);
  pool.release(a);
  EXPECT_EQ(pool.live_bytes(), 40u);
  pool.release(b);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

// ====================================================================
// Leak balance: everything acquired through a queue is released again
// by teardown — the pool's live() and the governor's packet counters,
// which read the pool, both return to zero.

TEST(PacketPool, QueueTeardownBalancesPoolAndGovernorToZero) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::of(sim);
  {
    DropTailQueue queue(64);
    queue.attach_pool(&pool);
    for (int i = 0; i < 10; ++i) {
      ASSERT_FALSE(test::enqueue_value(queue, make_packet(i)).has_value());
    }
    EXPECT_EQ(pool.live(), 10u);
    EXPECT_EQ(sim.governor().live_packets(), 10u);
    // Dequeue a few by value (round-trips out of the pool)...
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(test::dequeue_value(queue).has_value());
    }
    EXPECT_EQ(pool.live(), 6u);
    EXPECT_EQ(sim.governor().live_packets(), 6u);
    // ...and let the destructor release the residue.
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(PacketPool, RejectedEnqueueLeavesTheCallerOwningTheHandle) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::of(sim);
  DropTailQueue queue(1);
  queue.attach_pool(&pool);
  ASSERT_FALSE(test::enqueue_value(queue, make_packet(0)).has_value());
  const PacketHandle h = pool.acquire(make_packet(1)).handle;
  const auto reason = queue.enqueue(h);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, DropReason::kOverflow);
  // Still ours: live, readable, and releasable exactly once.
  EXPECT_TRUE(pool.is_live(h));
  EXPECT_EQ(pool.get(h).seq, 1);
  pool.release(h);
}

// ====================================================================
// Per-simulator identity: of() hands every component of one Simulator
// the same pool and different Simulators different pools, and the pool
// dies with its Simulator (the registry guard), so handles can never
// cross simulations.

TEST(PacketPool, OfReturnsOnePoolPerSimulator) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  PacketPool& a1 = PacketPool::of(sim_a);
  PacketPool& a2 = PacketPool::of(sim_a);
  PacketPool& b = PacketPool::of(sim_b);
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(&a1, &b);
}

TEST(PacketPool, SequentialSimulatorsGetFreshPools) {
  // Teardown must unregister the pool: a new Simulator that happens to
  // reuse the same stack address must not inherit the old pool's slots.
  std::size_t first_capacity = 0;
  {
    sim::Simulator sim;
    PacketPool& pool = PacketPool::of(sim);
    const PacketHandle h = pool.acquire(make_packet(1)).handle;
    first_capacity = pool.capacity();
    pool.release(h);
  }
  {
    sim::Simulator sim;
    PacketPool& pool = PacketPool::of(sim);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_LE(pool.capacity(), first_capacity);
  }
}

}  // namespace
}  // namespace slowcc::net
