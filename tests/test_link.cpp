#include <gtest/gtest.h>

#include <set>

#include "fault/fault_script.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

struct Capture final : PacketHandler {
  std::vector<std::pair<sim::Time, Packet>> received;
  sim::Simulator* sim = nullptr;
  void handle_packet(const Packet& p) override {
    received.emplace_back(sim->now(), std::move(p));
  }
};

struct Rig {
  sim::Simulator sim;
  Node a{0, "a"};
  Node b{1, "b"};
  Capture sink;
  Link link;

  explicit Rig(double bw = 8e6, sim::Time delay = sim::Time::millis(10),
               std::size_t qlen = 4)
      : link(sim, a, b, bw, delay, std::make_unique<DropTailQueue>(qlen)) {
    sink.sim = &sim;
    b.attach(1, sink);
    a.set_route(1, link);
  }

  // Offer a pooled packet the way the network does: its source node
  // routes it onto the link.
  void send(PacketHandle h) { a.deliver(h, PacketPool::of(sim)); }

  // A packet for the sink, acquired into the simulation's pool.
  PacketHandle packet(std::int64_t seq, std::int64_t size = 1000) {
    Packet p;
    p.src_node = 0;
    p.dst_node = 1;
    p.dst_port = 1;
    p.seq = seq;
    p.size_bytes = size;
    return PacketPool::of(sim).acquire(p).handle;
  }
};

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  Rig rig;  // 8 Mb/s: 1000 B = 1 ms serialization; 10 ms propagation
  rig.send(rig.packet(0));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::millis(11));
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  Rig rig;
  rig.send(rig.packet(0));
  rig.send(rig.packet(1));
  rig.send(rig.packet(2));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 3u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::millis(11));
  EXPECT_EQ(rig.sink.received[1].first, sim::Time::millis(12));
  EXPECT_EQ(rig.sink.received[2].first, sim::Time::millis(13));
  EXPECT_EQ(rig.sink.received[2].second.seq, 2);
}

TEST(Link, SmallPacketsSerializeFaster) {
  Rig rig;
  rig.send(rig.packet(0, 100));  // 0.1 ms at 8 Mb/s
  rig.sim.run();
  EXPECT_EQ(rig.sink.received[0].first,
            sim::Time::micros(100) + sim::Time::millis(10));
}

TEST(Link, QueueOverflowCountsDrops) {
  Rig rig(8e6, sim::Time::millis(10), 2);
  for (int i = 0; i < 10; ++i) rig.send(rig.packet(i));
  rig.sim.run();
  // 1 in flight immediately + 2 queued = 3 delivered, 7 dropped.
  EXPECT_EQ(rig.sink.received.size(), 3u);
  EXPECT_EQ(rig.link.stats().drops_overflow, 7u);
  EXPECT_EQ(rig.link.stats().arrivals, 10u);
  EXPECT_EQ(rig.link.stats().departures, 3u);
}

TEST(Link, ForcedDropFilterShortCircuitsQueue) {
  Rig rig;
  rig.link.set_forced_drop_filter(
      [](const Packet& p) { return p.seq % 2 == 0; });
  for (int i = 0; i < 6; ++i) rig.send(rig.packet(i));
  rig.sim.run();
  EXPECT_EQ(rig.sink.received.size(), 3u);
  EXPECT_EQ(rig.link.stats().drops_forced, 3u);
  for (auto& [t, p] : rig.sink.received) EXPECT_EQ(p.seq % 2, 1);
}

struct CountingObserver final : LinkObserver {
  int arrivals = 0, drops = 0, departs = 0;
  void on_arrival(const Packet&) override { ++arrivals; }
  void on_drop(const Packet&, DropReason) override { ++drops; }
  void on_depart(const Packet&) override { ++departs; }
};

TEST(Link, ObserversSeeAllThreeHooks) {
  Rig rig(8e6, sim::Time::millis(10), 2);
  CountingObserver obs;
  rig.link.add_observer(&obs);
  for (int i = 0; i < 10; ++i) rig.send(rig.packet(i));
  rig.sim.run();
  EXPECT_EQ(obs.arrivals, 10);
  EXPECT_EQ(obs.drops, 7);
  EXPECT_EQ(obs.departs, 3);
}

TEST(Link, BytesDeliveredAccumulates) {
  Rig rig;
  rig.send(rig.packet(0, 400));
  rig.send(rig.packet(1, 600));
  rig.sim.run();
  EXPECT_EQ(rig.link.stats().bytes_delivered, 1000);
}

TEST(Link, RejectsInvalidParameters) {
  sim::Simulator sim;
  Node a{0}, b{1};
  EXPECT_THROW(Link(sim, a, b, 0.0, sim::Time::millis(1),
                    std::make_unique<DropTailQueue>(4)),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, a, b, 1e6, sim::Time::millis(-1),
                    std::make_unique<DropTailQueue>(4)),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, a, b, 1e6, sim::Time::millis(1), nullptr),
               std::invalid_argument);
}

TEST(Link, IdleThenBusyAgain) {
  Rig rig;
  rig.send(rig.packet(0));
  rig.sim.run();
  rig.sim.schedule_at(rig.sim.now() + sim::Time::millis(5),
                      [&] { rig.send(rig.packet(1)); });
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 2u);
  // Second packet: sent at 16 ms, arrives 16 + 1 + 10 = 27 ms.
  EXPECT_EQ(rig.sink.received[1].first, sim::Time::millis(27));
}

TEST(Link, WireFifoGrowingPastSixteenAndWrappingDeliversInOrder) {
  // 8 Mb/s: 1000 B serialize in 1 ms. One packet offered per ms keeps
  // the transmitter busy and the queue short, so the in-flight count is
  // the propagation delay in ms: ~10 (the ring's first 16 slots, lapped
  // several times), then ~100 after the delay grows at 50 ms, so the
  // ring doubles past 16 with its head mid-ring.
  Rig rig(8e6, sim::Time::millis(10), 8);
  constexpr int kPackets = 300;
  for (int i = 0; i < kPackets; ++i) {
    rig.sim.schedule_at(sim::Time::millis(i),
                        [&rig, i] { rig.send(rig.packet(i)); });
  }
  rig.sim.schedule_at(sim::Time::millis(50), [&rig] {
    rig.link.set_propagation_delay(sim::Time::millis(100));
  });
  rig.sim.run_until(sim::Time::millis(140));
  // Everything that departed after the change is still on the wire.
  EXPECT_GE(rig.sim.pending_events(), 80u);
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    const auto& [at, p] = rig.sink.received[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.seq, i);
    // Packet i departs at i + 1 ms; the delay in force at its
    // departure applies (the change lands just before packet 49's).
    const sim::Time delay = sim::Time::millis(i + 1 < 50 ? 10 : 100);
    EXPECT_EQ(at, sim::Time::millis(i + 1) + delay) << "packet " << i;
  }
  EXPECT_EQ(rig.link.stats().departures, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(rig.sim.pending_events(), 0u);
}

struct DelayLog final : LinkObserver {
  std::set<std::int64_t> delays_ns;
  void on_state_change(const Link& link) override {
    delays_ns.insert(link.propagation_delay().as_nanos());
  }
};

TEST(Link, DelayJitterStepsLeaveABoundedLaneTable) {
  // 160 jitter steps, 10 ms apart, each a fresh delay in [5, 15] ms,
  // under a packet per ms. Each step moves later departures to a new
  // delivery lane while the old one still drains, so a lane table that
  // never re-purposed idle lanes would grow by one per step.
  Rig rig(8e6, sim::Time::millis(10), 8);
  DelayLog log;
  rig.link.add_observer(&log);
  fault::FaultScript script;
  script.delay_jitter(rig.link, sim::Time::millis(5), sim::Time::millis(1605),
                      sim::Time::millis(10), sim::Time::millis(5));
  fault::FaultInjector injector(rig.sim, 7);
  injector.arm(script);
  constexpr int kPackets = 1650;
  for (int i = 0; i < kPackets; ++i) {
    rig.sim.schedule_at(sim::Time::millis(i),
                        [&rig, i] { rig.send(rig.packet(i)); });
  }
  std::size_t most_in_use = 0;
  rig.sim.set_event_hook(1, [&] {
    most_in_use = std::max(most_in_use, rig.sim.lane_stats().in_use);
  });
  rig.sim.run();
  EXPECT_EQ(injector.faults_injected(), 160u);
  EXPECT_GE(log.delays_ns.size(), 150u) << "the steps must change the delay";
  ASSERT_EQ(rig.sink.received.size(), static_cast<std::size_t>(kPackets));
  // In use at once: the transmit lane, the current delay's lane and the
  // lanes of the one or two delays before it, still draining.
  EXPECT_LE(most_in_use, 4u);
  EXPECT_LE(rig.sim.lane_stats().allocated, 5u);
  EXPECT_EQ(rig.sim.lane_stats().most_live, 0u);
  rig.sim.clear_event_hook();
  rig.link.remove_observer(&log);
}

TEST(Link, LinksSharingALaneDieWithoutFiringIntoTheDeadOne) {
  // Two links with one bandwidth and one delay share both lanes; the
  // first dies with packets in its transmitter and on its wire.
  sim::Simulator sim;
  Node keep_from{0, "keep_from"};
  Node dying_from{2, "dying_from"};
  Node b{1, "b"};
  Capture sink;
  sink.sim = &sim;
  b.attach(1, sink);
  auto packet = [&sim](std::int64_t seq) {
    Packet p;
    p.src_node = 0;
    p.dst_node = 1;
    p.dst_port = 1;
    p.seq = seq;
    p.size_bytes = 1000;
    return PacketPool::of(sim).acquire(p).handle;
  };
  Link keep(sim, keep_from, b, 8e6, sim::Time::millis(10),
            std::make_unique<DropTailQueue>(8));
  auto dying = std::make_unique<Link>(sim, dying_from, b, 8e6,
                                      sim::Time::millis(10),
                                      std::make_unique<DropTailQueue>(8));
  keep_from.set_route(1, keep);
  dying_from.set_route(1, *dying);
  PacketPool& pool = PacketPool::of(sim);
  for (int i = 0; i < 4; ++i) {
    keep_from.deliver(packet(i), pool);
    dying_from.deliver(packet(100 + i), pool);
  }
  sim.run_until(sim::Time::micros(2500));  // 2 on each wire, 1 in each tx
  EXPECT_EQ(pool.live(), 8u);
  EXPECT_EQ(sim.lane_stats().most_live, 4u);
  dying.reset();
  EXPECT_EQ(pool.live(), 4u);
  sim.run();
  ASSERT_EQ(sink.received.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.received[static_cast<std::size_t>(i)].second.seq, i);
  }
  EXPECT_EQ(pool.live(), 0u);
}

// A wire model that delays every packet by 5 ms or duplicates it, so
// its delivery (or its copy's) rides an engine event, not a lane.
struct DelayOrDuplicate final : WireModel {
  bool duplicate = false;
  WireVerdict on_wire(const Packet& /*p*/) override {
    WireVerdict v;
    if (duplicate) {
      v.duplicate = true;
    } else {
      v.extra_delay = sim::Time::millis(5);
    }
    return v;
  }
};

// ~Link must cancel the engine deliveries a wire model scheduled and
// return their packets, as it does for lane entries: one packet,
// destroyed 2 ms into its 10 ms propagation.
void expect_dead_link_cancels_wire_delivery(bool duplicate) {
  sim::Simulator sim;
  Node a{0, "a"};
  Node b{1, "b"};
  Capture sink;
  sink.sim = &sim;
  b.attach(1, sink);
  DelayOrDuplicate wire;
  wire.duplicate = duplicate;
  auto link = std::make_unique<Link>(sim, a, b, 8e6, sim::Time::millis(10),
                                     std::make_unique<DropTailQueue>(4));
  link->set_wire_model(&wire);
  a.set_route(1, *link);
  Packet p;
  p.dst_node = 1;
  p.dst_port = 1;
  p.size_bytes = 1000;
  PacketPool& pool = PacketPool::of(sim);
  a.deliver(pool.acquire(p).handle, pool);
  sim.run_until(sim::Time::millis(3));
  ASSERT_EQ(pool.live(), duplicate ? 2u : 1u);
  link.reset();
  // Checked before running on: a delivery left pending would fire into
  // the dead link.
  ASSERT_EQ(pool.live(), 0u);
  ASSERT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Link, DestroyedLinkCancelsAWireDelayedDelivery) {
  expect_dead_link_cancels_wire_delivery(false);
}

TEST(Link, DestroyedLinkCancelsADuplicateOnTheWire) {
  expect_dead_link_cancels_wire_delivery(true);
}

// A hop checks its handle once, where the source node takes it in;
// that one check still refuses a handle whose slot was recycled under
// it, before the link sees it.
TEST(Link, SendOfAStaleHandleThrows) {
  Rig rig;
  PacketPool& pool = PacketPool::of(rig.sim);
  const PacketHandle stale = rig.packet(1);
  pool.release(stale);
  const PacketHandle reused = rig.packet(2);
  ASSERT_EQ(reused.slot, stale.slot);
  const std::size_t live = pool.live();
  try {
    rig.send(stale);
    ADD_FAILURE() << "a stale handle was sent";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kInvariantViolation);
  }
  EXPECT_EQ(pool.live(), live);
  EXPECT_EQ(rig.link.stats().arrivals, 0u);
  EXPECT_TRUE(rig.link.queue().empty());
  pool.release(reused);
}

}  // namespace
}  // namespace slowcc::net
