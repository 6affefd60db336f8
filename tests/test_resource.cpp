// ResourceGovernor: the per-trial memory model that turns "this trial
// is eating the machine" into a deterministic SimError instead of an
// OOM-kill. Covers the ceiling abort and its determinism, counter
// balance at teardown (including a queue destroyed
// while still holding packets), the packet model read from the
// simulation's PacketPool, and the thread-local peaks the trial
// harness reads after the Simulator is gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/drop_tail_queue.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "queue_values.hpp"
#include "sim/error.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace slowcc::sim {
namespace {

using test::dequeue_value;
using test::enqueue_value;

net::Packet make_packet(std::int64_t size_bytes) {
  net::Packet p;
  p.size_bytes = size_bytes;
  return p;
}

/// Schedule a self-replicating event chain that enqueues `pkts` packets
/// of `bytes` each per tick — a miniature memory bomb. The caller keeps
/// `tick` alive for the run; the closure holds it weakly, because a
/// closure owning the function that stores it would never be freed.
void arm_bomb(Simulator& sim, net::Queue& queue,
              const std::shared_ptr<std::function<void()>>& tick, int pkts,
              std::int64_t bytes) {
  *tick = [&sim, &queue, weak = std::weak_ptr(tick), pkts, bytes] {
    for (int i = 0; i < pkts; ++i) {
      (void)enqueue_value(queue, make_packet(bytes));
    }
    const auto self = weak.lock();
    if (!self) return;
    sim.schedule_in(Time::millis(1), *self);
    sim.schedule_in(Time::millis(2), *self);
  };
  sim.schedule_in(Time::millis(1), *tick);
}

TEST(ResourceGovernor, BytesEstimateFollowsTheDocumentedModel) {
  Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  const ResourceGovernor& g = sim.governor();
  std::vector<net::PacketHandle> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(pool.acquire(make_packet(1500)).handle);
  }
  EXPECT_EQ(g.live_packets(), 3u);
  EXPECT_EQ(g.queued_bytes(), 4500u);
  EXPECT_EQ(g.bytes_estimate(10),
            10 * ResourceGovernor::kEventFootprintBytes +
                3 * ResourceGovernor::kPacketFootprintBytes + 4500);
  for (const net::PacketHandle h : held) pool.release(h);
  EXPECT_EQ(g.bytes_estimate(0), 0u);
}

TEST(ResourceGovernor, CeilingAbortThrowsResourceExhausted) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_pool(&net::PacketPool::of(sim));
  sim.governor().set_budget(64 * 1024);

  auto tick = std::make_shared<std::function<void()>>();
  arm_bomb(sim, queue, tick, /*pkts=*/16, /*bytes=*/1500);
  try {
    sim.run_until(Time::seconds(10));
    FAIL() << "bomb ran to completion under a 64 KiB budget";
  } catch (const SimError& ex) {
    EXPECT_EQ(ex.code(), SimErrc::kResourceExhausted);
    // The detail string is part of the deterministic row contract.
    EXPECT_NE(std::string(ex.what()).find("exceeds budget"),
              std::string::npos);
  }
}

TEST(ResourceGovernor, AbortEventIsDeterministic) {
  const auto events_at_abort = [] {
    Simulator sim;
    net::DropTailQueue queue(std::size_t{1} << 20);
    queue.attach_pool(&net::PacketPool::of(sim));
    sim.governor().set_budget(64 * 1024);
    auto tick = std::make_shared<std::function<void()>>();
    arm_bomb(sim, queue, tick, 16, 1500);
    try {
      sim.run_until(Time::seconds(10));
    } catch (const SimError&) {
      return sim.events_executed();
    }
    return std::uint64_t{0};
  };
  const std::uint64_t first = events_at_abort();
  ASSERT_GT(first, 0u);
  EXPECT_EQ(events_at_abort(), first);
}

TEST(ResourceGovernor, CountersBalanceToZeroAfterACleanTrial) {
  Simulator sim;
  {
    net::DropTailQueue queue(1024);
    queue.attach_pool(&net::PacketPool::of(sim));
    for (int i = 0; i < 40; ++i) {
      (void)enqueue_value(queue, make_packet(1000));
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(dequeue_value(queue).has_value());
    }
    EXPECT_EQ(sim.governor().live_packets(), 0u);
    EXPECT_EQ(sim.governor().queued_bytes(), 0u);
  }
  // Destroying the (empty) queue releases nothing further.
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, QueueDestroyedHoldingPacketsReleasesItsResidue) {
  Simulator sim;
  {
    net::DropTailQueue queue(1024);
    queue.attach_pool(&net::PacketPool::of(sim));
    for (int i = 0; i < 17; ++i) {
      (void)enqueue_value(queue, make_packet(1500));
    }
    EXPECT_EQ(sim.governor().live_packets(), 17u);
    EXPECT_EQ(sim.governor().queued_bytes(), 17u * 1500u);
  }  // torn down full, as after a kResourceExhausted abort
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, CountsEveryPooledPacketNotOnlyQueuedOnes) {
  Simulator sim;
  EXPECT_EQ(sim.governor().live_packets(), 0u);  // no pool yet
  net::PacketPool& pool = net::PacketPool::of(sim);
  net::DropTailQueue queue(1024);
  queue.attach_pool(&pool);
  for (int i = 0; i < 5; ++i) {
    (void)enqueue_value(queue, make_packet(200));
  }
  // Held outside any queue (in a transmitter, on the wire): counted.
  const net::PacketHandle loose = pool.acquire(make_packet(1000)).handle;
  EXPECT_EQ(sim.governor().live_packets(), 6u);
  EXPECT_EQ(sim.governor().queued_bytes(), 2000u);
  // A pool no Simulator owns is nobody's budget.
  net::PacketPool detached;
  const net::PacketHandle other = detached.acquire(make_packet(9000)).handle;
  EXPECT_EQ(sim.governor().live_packets(), 6u);
  detached.release(other);
  pool.release(loose);
  while (dequeue_value(queue).has_value()) {
  }
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, ThreadPeaksSurviveTheSimulatorAndReset) {
  ResourceGovernor::reset_thread_peaks();
  EXPECT_EQ(ResourceGovernor::thread_peaks().bytes_estimate, 0u);
  {
    Simulator sim;
    net::DropTailQueue queue(std::size_t{1} << 20);
    queue.attach_pool(&net::PacketPool::of(sim));
    sim.governor().set_budget(64 * 1024);
    auto tick = std::make_shared<std::function<void()>>();
    arm_bomb(sim, queue, tick, 16, 1500);
    EXPECT_THROW(sim.run_until(Time::seconds(10)), SimError);
  }  // Simulator and queue both gone
  const ResourceUsage& peaks = ResourceGovernor::thread_peaks();
  EXPECT_GE(peaks.bytes_estimate, 64u * 1024u);
  EXPECT_GT(peaks.live_packets, 0u);
  EXPECT_GT(peaks.queued_bytes, 0u);
  ResourceGovernor::reset_thread_peaks();
  EXPECT_EQ(ResourceGovernor::thread_peaks().bytes_estimate, 0u);
  EXPECT_EQ(ResourceGovernor::thread_peaks().live_packets, 0u);
}

TEST(ResourceGovernor, DisarmedGovernorNeverAborts) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_pool(&net::PacketPool::of(sim));
  int ticks = 0;
  std::function<void()> tick = [&] {
    for (int i = 0; i < 16; ++i) {
      (void)enqueue_value(queue, make_packet(1500));
    }
    if (++ticks < 128) sim.schedule_in(Time::millis(1), tick);
  };
  sim.schedule_in(Time::millis(1), tick);
  EXPECT_NO_THROW(sim.run());
  EXPECT_FALSE(sim.governor().armed());
  EXPECT_EQ(queue.length_packets(), 128u * 16u);
}

}  // namespace
}  // namespace slowcc::sim
