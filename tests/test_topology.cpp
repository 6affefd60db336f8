#include <gtest/gtest.h>

#include <functional>
#include <iterator>

#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

struct Capture final : PacketHandler {
  std::vector<Packet> received;
  void handle_packet(const Packet& p) override { received.push_back(std::move(p)); }
};

TEST(Node, AttachDetachPorts) {
  Node n(0);
  Capture h;
  n.attach(5, h);
  EXPECT_THROW(n.attach(5, h), std::logic_error);
  n.detach(5);
  n.attach(5, h);  // reattach works after detach
}

TEST(Node, AllocatePortIsUnique) {
  Node n(0);
  const PortId p1 = n.allocate_port();
  const PortId p2 = n.allocate_port();
  EXPECT_NE(p1, p2);
}

TEST(Node, UndeliverableCountsMissingHandlerAndRoute) {
  PacketPool pool;
  Node n(0);
  Packet to_me;
  to_me.dst_node = 0;
  to_me.dst_port = 42;  // no handler
  n.deliver(pool.acquire(to_me).handle, pool);
  Packet transit;
  transit.dst_node = 9;  // no route
  n.deliver(pool.acquire(transit).handle, pool);
  EXPECT_EQ(n.undeliverable_count(), 2u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Topology, RoutesAcrossMultiHopChain) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node("a");
  Node& r1 = topo.add_node("r1");
  Node& r2 = topo.add_node("r2");
  Node& b = topo.add_node("b");
  topo.add_duplex(a, r1, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r1, r2, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r2, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture sink;
  b.attach(1, sink);
  Packet p;
  p.src_node = a.id();
  p.dst_node = b.id();
  p.dst_port = 1;
  PacketPool& pool = PacketPool::of(sim);
  a.deliver(pool.acquire(p).handle, pool);
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
}

TEST(Topology, ReverseDirectionAlsoRouted) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& r = topo.add_node();
  Node& b = topo.add_node();
  topo.add_duplex(a, r, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture at_a;
  a.attach(1, at_a);
  Packet p;
  p.src_node = b.id();
  p.dst_node = a.id();
  p.dst_port = 1;
  PacketPool& pool = PacketPool::of(sim);
  b.deliver(pool.acquire(p).handle, pool);
  sim.run();
  EXPECT_EQ(at_a.received.size(), 1u);
}

TEST(Topology, ShortestPathPreferredOverDetour) {
  sim::Simulator sim;
  Topology topo(sim);
  // a - b - c with an extra a - d - e - c detour: BFS must pick a-b-c.
  Node& a = topo.add_node("a");
  Node& b = topo.add_node("b");
  Node& c = topo.add_node("c");
  Node& d = topo.add_node("d");
  Node& e = topo.add_node("e");
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  auto [direct_bc, unused] = topo.add_duplex(b, c, 10e6, sim::Time::millis(1), 100);
  (void)unused;
  topo.add_duplex(a, d, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(d, e, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(e, c, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture sink;
  c.attach(1, sink);
  Packet p;
  p.src_node = a.id();
  p.dst_node = c.id();
  p.dst_port = 1;
  PacketPool& pool = PacketPool::of(sim);
  a.deliver(pool.acquire(p).handle, pool);
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(direct_bc->stats().departures, 1u) << "short path used";
}

TEST(Topology, NodeNamesAndCount) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node("alpha");
  Node& b = topo.add_node();
  EXPECT_EQ(a.name(), "alpha");
  EXPECT_EQ(b.name(), "n1");
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(&topo.node(0), &a);
}

TEST(Topology, UnreachableNodesSimplyDropTraffic) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();  // no links at all
  topo.compute_routes();
  Packet p;
  p.src_node = a.id();
  p.dst_node = b.id();
  PacketPool& pool = PacketPool::of(sim);
  a.deliver(pool.acquire(p).handle, pool);
  sim.run();
  EXPECT_EQ(a.undeliverable_count(), 1u);
}

sim::SimErrc error_code(const std::function<void()>& f) {
  try {
    f();
  } catch (const sim::SimError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected SimError";
  return sim::SimErrc::kInvariantViolation;
}

TEST(Node, NegativeOrBoundPortAttachThrowsBadTopology) {
  Node n(0);
  Capture h;
  EXPECT_EQ(error_code([&] { n.attach(-1, h); }), sim::SimErrc::kBadTopology);
  n.attach(0, h);
  n.attach(300, h);  // far past the last bound port: the table grows
  EXPECT_EQ(error_code([&] { n.attach(0, h); }), sim::SimErrc::kBadTopology);
  EXPECT_EQ(error_code([&] { n.attach(300, h); }), sim::SimErrc::kBadTopology);
  n.detach(-1);    // never bound: no-op
  n.detach(5000);  // past the table: no-op
  n.attach(7, h);  // the gap between bound ports is free
}

TEST(Node, NegativeRouteDestinationThrowsBadTopology) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  auto [ab, ba] = topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 10);
  (void)ba;
  EXPECT_EQ(error_code([&] { a.set_route(-2, *ab); }),
            sim::SimErrc::kBadTopology);
}

TEST(Node, DeliveryAfterDetachIsUndeliverable) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::of(sim);
  Node n(0);
  Capture h;
  n.attach(3, h);
  n.detach(3);
  Packet p;
  p.dst_node = 0;
  p.dst_port = 3;
  n.deliver(pool.acquire(p).handle, pool);
  EXPECT_TRUE(h.received.empty());
  EXPECT_EQ(n.undeliverable_count(), 1u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Node, DeliverOfAStaleHandleThrows) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::of(sim);
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 10);
  topo.compute_routes();
  Capture sink;
  a.attach(1, sink);
  // One stale handle addressed here, one to be forwarded: the node's
  // check is the only one the forwarded hop gets.
  for (const NodeId dst : {a.id(), b.id()}) {
    Packet p;
    p.dst_node = dst;
    p.dst_port = 1;
    const PacketHandle stale = pool.acquire(p).handle;
    pool.release(stale);
    const PacketHandle reused = pool.acquire(p).handle;
    ASSERT_EQ(reused.slot, stale.slot);
    const std::size_t live = pool.live();
    try {
      a.deliver(stale, pool);
      ADD_FAILURE() << "a stale handle was delivered to node " << dst;
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.code(), sim::SimErrc::kInvariantViolation);
    }
    EXPECT_EQ(pool.live(), live);
    pool.release(reused);
  }
  sim.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(a.undeliverable_count(), 0u);
}

TEST(Node, UnroutedOrOutOfRangeDestinationsReleaseHandles) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::of(sim);
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  Node& island = topo.add_node();  // no links: routed nowhere
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 10);
  topo.compute_routes();
  Capture sink;
  a.attach(1, sink);

  const struct {
    NodeId node;
    PortId port;
  } targets[] = {
      {island.id(), 1},  // unrouted
      {99, 1},           // past the routing table
      {-4, 1},           // negative node id
      {a.id(), 1000},    // local, past the port table
      {a.id(), -1},      // local, negative port
      {a.id(), 0},       // local, unbound port inside the table
  };
  for (const auto& t : targets) {
    Packet p;
    p.src_node = a.id();
    p.dst_node = t.node;
    p.dst_port = t.port;
    a.deliver(pool.acquire(p).handle, pool);
  }
  sim.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(a.undeliverable_count(), std::size(targets));
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace slowcc::net
