// Dynamic-link semantics: up/down, bandwidth re-timing, delay changes,
// observer lifecycle, and the wire-model hook.
#include <gtest/gtest.h>

#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
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
               std::size_t qlen = 16)
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

struct RecordingObserver final : LinkObserver {
  std::vector<DropReason> drops;
  int state_changes = 0;
  int departs = 0;
  void on_drop(const Packet&, DropReason r) override { drops.push_back(r); }
  void on_depart(const Packet&) override { ++departs; }
  void on_state_change(const Link&) override { ++state_changes; }
};

TEST(DynamicLink, DownDropsInFlightAndQueuedWithLinkDownReason) {
  Rig rig;  // 1 ms serialization per packet
  RecordingObserver obs;
  rig.link.add_observer(&obs);
  for (int i = 0; i < 4; ++i) rig.send(rig.packet(i));
  // At 0.5 ms: packet 0 is mid-serialization, 1-3 queued.
  rig.sim.schedule_at(sim::Time::micros(500), [&] { rig.link.set_down(); });
  rig.sim.run();
  EXPECT_TRUE(rig.sink.received.empty());
  EXPECT_EQ(rig.link.stats().drops_link_down, 4u);
  EXPECT_EQ(rig.link.stats().departures, 0u);
  EXPECT_FALSE(rig.link.transmitting());
  EXPECT_TRUE(rig.link.queue().empty());
  ASSERT_EQ(obs.drops.size(), 4u);
  for (auto r : obs.drops) EXPECT_EQ(r, DropReason::kLinkDown);
  EXPECT_EQ(obs.state_changes, 1);
  EXPECT_FALSE(rig.link.is_up());
}

TEST(DynamicLink, ArrivalsWhileDownAreDropped) {
  Rig rig;
  rig.link.set_down();
  rig.send(rig.packet(0));
  rig.sim.run();
  EXPECT_EQ(rig.link.stats().arrivals, 1u);
  EXPECT_EQ(rig.link.stats().drops_link_down, 1u);
  EXPECT_TRUE(rig.sink.received.empty());
}

TEST(DynamicLink, PacketAlreadyPropagatingStillDelivers) {
  Rig rig;
  rig.send(rig.packet(0));
  // Serialization ends at 1 ms; kill the link at 5 ms, mid-propagation.
  rig.sim.schedule_at(sim::Time::millis(5), [&] { rig.link.set_down(); });
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::millis(11));
}

TEST(DynamicLink, UpDownUpResumesTraffic) {
  Rig rig;
  rig.link.set_down();
  rig.link.set_down();  // idempotent
  rig.link.set_up();
  rig.link.set_up();  // idempotent
  rig.send(rig.packet(0));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_TRUE(rig.link.is_up());
}

TEST(DynamicLink, BandwidthChangeRetimesInFlightPacket) {
  // 8 kb/s: a 1000 B packet takes exactly 1 s to serialize.
  Rig rig(8e3, sim::Time());
  rig.send(rig.packet(0));
  // At 0.25 s, 2000 of 8000 bits are out; doubling the rate should
  // finish the remaining 6000 bits in 0.375 s => delivery at 0.625 s.
  rig.sim.schedule_at(sim::Time::seconds(0.25),
                      [&] { rig.link.set_bandwidth(16e3); });
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::seconds(0.625));
  EXPECT_EQ(rig.link.bandwidth_bps(), 16e3);
}

TEST(DynamicLink, BandwidthDecreaseStretchesInFlightPacket) {
  Rig rig(8e3, sim::Time());
  rig.send(rig.packet(0));
  // At 0.5 s, 4000 bits remain; halving the rate takes 1 s more.
  rig.sim.schedule_at(sim::Time::seconds(0.5),
                      [&] { rig.link.set_bandwidth(4e3); });
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::seconds(1.5));
}

TEST(DynamicLink, DelayChangeAppliesOnlyToLaterDepartures) {
  Rig rig;  // 1 ms serialization, 10 ms propagation
  rig.send(rig.packet(0));
  rig.send(rig.packet(1));
  // Packet 0 departs at 1 ms with the old delay even though the change
  // lands at 1.5 ms; packet 1 departs at 2 ms with the new delay.
  rig.sim.schedule_at(sim::Time::micros(1500), [&] {
    rig.link.set_propagation_delay(sim::Time::millis(20));
  });
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 2u);
  EXPECT_EQ(rig.sink.received[0].first, sim::Time::millis(11));
  EXPECT_EQ(rig.sink.received[1].first, sim::Time::millis(22));
}

TEST(DynamicLink, StateChangeObserverFiresForEveryKnob) {
  Rig rig;
  RecordingObserver obs;
  rig.link.add_observer(&obs);
  rig.link.set_bandwidth(16e6);
  rig.link.set_propagation_delay(sim::Time::millis(5));
  rig.link.set_down();
  rig.link.set_up();
  EXPECT_EQ(obs.state_changes, 4);
  // No-op changes do not notify.
  rig.link.set_bandwidth(16e6);
  rig.link.set_propagation_delay(sim::Time::millis(5));
  rig.link.set_up();
  EXPECT_EQ(obs.state_changes, 4);
}

TEST(DynamicLink, RejectsInvalidReconfiguration) {
  Rig rig;
  EXPECT_THROW(rig.link.set_bandwidth(0.0), sim::SimError);
  EXPECT_THROW(rig.link.set_bandwidth(-1.0), std::invalid_argument);
  EXPECT_THROW(rig.link.set_propagation_delay(sim::Time::millis(-1)),
               sim::SimError);
  try {
    rig.link.set_bandwidth(0.0);
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadConfig);
    EXPECT_EQ(e.component(), "Link");
  }
}

TEST(DynamicLink, DoubleObserverRegistrationThrows) {
  Rig rig;
  RecordingObserver obs;
  rig.link.add_observer(&obs);
  EXPECT_THROW(rig.link.add_observer(&obs), sim::SimError);
}

TEST(DynamicLink, RemoveObserverStopsCallbacks) {
  Rig rig;
  RecordingObserver obs;
  rig.link.add_observer(&obs);
  rig.send(rig.packet(0));
  rig.sim.run();
  EXPECT_EQ(obs.departs, 1);
  rig.link.remove_observer(&obs);
  rig.link.remove_observer(&obs);  // no-op when absent
  rig.send(rig.packet(1));
  rig.sim.run();
  EXPECT_EQ(obs.departs, 1);
  // Re-registration after removal is legal.
  rig.link.add_observer(&obs);
}

struct ScriptedWire final : WireModel {
  std::vector<WireVerdict> script;
  std::size_t next = 0;
  WireVerdict on_wire(const Packet&) override {
    if (next < script.size()) return script[next++];
    return WireVerdict{};
  }
};

TEST(DynamicLink, WireDropCountsAsImpairmentNotDeparture) {
  Rig rig;
  ScriptedWire wire;
  WireVerdict v;
  v.drop = true;
  wire.script.push_back(v);
  rig.link.set_wire_model(&wire);
  rig.send(rig.packet(0));
  rig.send(rig.packet(1));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 1u);
  EXPECT_EQ(rig.sink.received[0].second.seq, 1);
  EXPECT_EQ(rig.link.stats().drops_impairment, 1u);
  EXPECT_EQ(rig.link.stats().departures, 1u);
  EXPECT_EQ(rig.link.stats().bytes_delivered, 1000);
}

TEST(DynamicLink, WireDuplicationDeliversTwoCopies) {
  Rig rig;
  ScriptedWire wire;
  WireVerdict v;
  v.duplicate = true;
  v.duplicate_delay = sim::Time::millis(1);
  wire.script.push_back(v);
  rig.link.set_wire_model(&wire);
  rig.send(rig.packet(7));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 2u);
  EXPECT_EQ(rig.sink.received[0].second.seq, 7);
  EXPECT_EQ(rig.sink.received[1].second.seq, 7);
  EXPECT_EQ(rig.sink.received[1].first - rig.sink.received[0].first,
            sim::Time::millis(1));
  EXPECT_EQ(rig.link.stats().duplicates, 1u);
  EXPECT_EQ(rig.link.stats().departures, 1u);
}

TEST(DynamicLink, WireExtraDelayReordersPackets) {
  Rig rig;
  ScriptedWire wire;
  WireVerdict v;
  v.extra_delay = sim::Time::millis(5);
  wire.script.push_back(v);
  rig.link.set_wire_model(&wire);
  rig.send(rig.packet(0));
  rig.send(rig.packet(1));
  rig.sim.run();
  ASSERT_EQ(rig.sink.received.size(), 2u);
  // Packet 0 was held 5 ms on the wire; packet 1 overtakes it.
  EXPECT_EQ(rig.sink.received[0].second.seq, 1);
  EXPECT_EQ(rig.sink.received[1].second.seq, 0);
  EXPECT_EQ(rig.link.stats().reordered, 1u);
}

}  // namespace
}  // namespace slowcc::net
