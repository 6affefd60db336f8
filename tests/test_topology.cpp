#include <gtest/gtest.h>

#include <functional>
#include <iterator>

#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "reference_routing.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
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
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(b.id(), 1);
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

TEST(Node, DefaultRouteCoversItsRangeAndYieldsToTableEntries) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  auto [ab, ba] = topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 10);
  a.set_route(1, *ba);
  a.set_route(7, *ba);
  a.set_default_route(*ab, 5);
  EXPECT_EQ(a.next_hop(1), ab) << "entries below the range are dropped";
  EXPECT_EQ(a.next_hop(4), ab);
  EXPECT_EQ(a.next_hop(5), nullptr) << "past the range";
  EXPECT_EQ(a.next_hop(-1), nullptr);
  EXPECT_EQ(a.next_hop(7), ba) << "entries past the range stay";
  a.set_route(3, *ba);
  EXPECT_EQ(a.next_hop(3), ba) << "a later entry wins";
  EXPECT_EQ(a.route_table_size(), 8u);
  b.set_default_route(*ba, 5);
  EXPECT_EQ(b.route_table_size(), 0u) << "a default route alone needs no table";

  // set_routes installs the non-null hops and drops the default route.
  const std::vector<Link*> hops{nullptr, nullptr, ab};
  a.set_routes(hops);
  EXPECT_EQ(a.next_hop(2), ab);
  EXPECT_EQ(a.next_hop(3), ba) << "entries with a null hop stay";
  EXPECT_EQ(a.next_hop(4), nullptr) << "the default route is gone";
}

// compute_routes against the per-source BFS it replaced
// (reference_routing.hpp). Every operation goes to the topology and to
// the oracle alike; `expect_same` then compares the next hop from every
// node to every other destination id in [-2, n + 2), and the
// undeliverable count each node reaches when it is handed one packet for
// each. A packet for the node itself never reads the routes (deliver
// dispatches it locally), so the next hop to itself is not compared.
class RoutingDiff {
 public:
  void add_nodes(int k) {
    for (int i = 0; i < k; ++i) nodes_.push_back(&topo_.add_node());
  }

  Link& link(NodeId from, NodeId to) {
    return topo_.add_link(at(from), at(to), 10e6, sim::Time::millis(1),
                          std::make_unique<DropTailQueue>(1000));
  }
  void duplex(NodeId a, NodeId b) {
    link(a, b);
    link(b, a);
  }

  void set_route(NodeId from, NodeId dst, Link& out) {
    at(from).set_route(dst, out);
    ref_.set_route(from, dst, out);
  }

  void compute_routes() {
    topo_.compute_routes();
    ref_.compute_routes(topo_);
  }

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(nodes_.size());
  }
  [[nodiscard]] std::size_t link_count() const { return topo_.link_count(); }
  Link& link_at(std::size_t i) { return topo_.link(i); }
  Node& at(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }

  void expect_same(const std::string& label) {
    SCOPED_TRACE(label);
    const NodeId n = node_count();
    PacketPool& pool = PacketPool::of(sim_);
    for (NodeId from = 0; from < n; ++from) {
      Node& node = at(from);
      const std::uint64_t before = node.undeliverable_count();
      std::uint64_t expected = 0;
      for (NodeId dst = -2; dst < n + 2; ++dst) {
        if (dst == from) {
          ++expected;  // no handler is attached anywhere
        } else {
          Link* want = ref_.next_hop(from, dst);
          EXPECT_EQ(node.next_hop(dst), want)
              << "next hop from " << from << " to " << dst;
          if (want == nullptr) ++expected;
        }
        Packet p;
        p.src_node = from;
        p.dst_node = dst;
        p.dst_port = 1;
        node.deliver(pool.acquire(p).handle, pool);
      }
      EXPECT_EQ(node.undeliverable_count() - before, expected)
          << "undeliverable at " << from;
    }
  }

 private:
  sim::Simulator sim_;  // outlives the links, which release queued packets
  Topology topo_{sim_};
  std::vector<Node*> nodes_;
  test::ReferenceRouting ref_;
};

TEST(RoutingDiff, DumbbellHostsTakeTheirAccessLink) {
  // Two routers (0, 1) joined by a bottleneck, three hosts on each side.
  RoutingDiff d;
  d.add_nodes(8);
  d.duplex(0, 1);
  for (NodeId h = 2; h < 8; ++h) d.duplex(h, h < 5 ? 0 : 1);
  d.compute_routes();
  d.expect_same("dumbbell");
  for (NodeId h = 2; h < 8; ++h) {
    EXPECT_EQ(&d.at(h).next_hop(h == 2 ? 3 : 2)->to(), &d.at(h < 5 ? 0 : 1));
  }
}

TEST(RoutingDiff, IslandsOneWayLinksAndChains) {
  {
    RoutingDiff d;  // a strongly connected pair plus an island
    d.add_nodes(3);
    d.duplex(0, 1);
    d.compute_routes();
    d.expect_same("island");
  }
  {
    RoutingDiff d;  // one-way chain 0 -> 1 -> 2 -> 3: every out-degree <= 1
    d.add_nodes(4);
    d.link(0, 1);
    d.link(1, 2);
    d.link(2, 3);
    d.compute_routes();
    d.expect_same("one-way chain");
  }
  {
    RoutingDiff d;  // one-way ring: strongly connected, all out-degree 1
    d.add_nodes(5);
    for (NodeId i = 0; i < 5; ++i) d.link(i, (i + 1) % 5);
    d.compute_routes();
    d.expect_same("ring");
  }
  {
    RoutingDiff d;  // a single node, and one whose only link loops back
    d.add_nodes(1);
    d.compute_routes();
    d.expect_same("single node");
    d.link(0, 0);
    d.compute_routes();
    d.expect_same("single node with a self-loop");
    d.add_nodes(1);
    d.link(1, 0);
    d.compute_routes();
    d.expect_same("self-loop as the only out-link");
  }
  {
    RoutingDiff d;  // no nodes at all
    d.compute_routes();
    d.expect_same("empty");
  }
}

TEST(RoutingDiff, EqualLengthPathsTieToTheEarliestLink) {
  RoutingDiff d;  // diamond 0 -> {1, 2} -> 3, plus parallel links 3 -> 0
  d.add_nodes(4);
  Link& via1 = d.link(0, 1);
  d.link(0, 2);
  d.link(2, 3);
  d.link(1, 3);
  d.link(3, 0);
  d.link(3, 0);
  d.link(1, 0);
  d.link(2, 0);
  d.compute_routes();
  d.expect_same("diamond");
  EXPECT_EQ(d.at(0).next_hop(3), &via1);
}

TEST(RoutingDiff, ExplicitRoutesAroundComputeRoutes) {
  RoutingDiff d;
  d.add_nodes(5);
  d.duplex(0, 1);
  d.duplex(1, 2);
  d.duplex(1, 3);
  // 4 is a sink, so the graph is not strongly connected yet.
  Link& one_way = d.link(3, 4);
  Link& host = d.link_at(0);
  // Before: an entry in range (overwritten), one for the node itself
  // and one past the graph (both kept).
  d.set_route(0, 2, one_way);
  d.set_route(0, 0, one_way);
  d.set_route(0, 9, one_way);
  d.set_route(4, 0, one_way);  // unreachable from 4: kept
  d.compute_routes();
  d.expect_same("set_route, then compute_routes");
  // After: an explicit entry wins over the computed one.
  d.set_route(0, 3, one_way);
  d.set_route(2, 3, host);
  d.expect_same("compute_routes, then set_route");
  // Closing the graph makes it strongly connected: hosts 0, 2 and 4
  // now take default routes, which drop their entries below n and keep
  // the one past it.
  d.link(4, 3);
  d.compute_routes();
  d.expect_same("compute_routes twice");
  d.set_route(2, 0, one_way);
  d.expect_same("set_route over a default route");
  d.compute_routes();
  d.expect_same("compute_routes a third time");
  // A node added afterwards is out of every default route's range until
  // the routes are computed again.
  d.add_nodes(1);
  d.duplex(5, 1);
  d.expect_same("a node added after compute_routes");
  d.compute_routes();
  d.expect_same("recomputed with the new node");
}

TEST(RoutingDiff, RandomGraphs) {
  sim::Rng rng(20011);
  auto pick = [&](std::uint64_t k) {
    return static_cast<NodeId>(rng.uniform_int(k));
  };
  for (int trial = 0; trial < 300; ++trial) {
    RoutingDiff d;
    const NodeId n = 1 + pick(12);
    const auto size = static_cast<std::uint64_t>(n);
    d.add_nodes(n);
    auto any = [&] { return pick(size); };
    // Shape: 0 random one-way links, 1 a duplex tree plus extra links
    // (strongly connected, leaves of out-degree 1), 2 a one-way ring
    // plus chords.
    const int shape = trial % 3;
    if (shape == 1) {
      for (NodeId v = 1; v < n; ++v) {
        d.duplex(v, pick(static_cast<std::uint64_t>(v)));
      }
    } else if (shape == 2) {
      for (NodeId v = 0; v < n; ++v) d.link(v, (v + 1) % n);
    }
    const NodeId extra = pick(shape == 0 ? 3 * size : 3);
    for (NodeId i = 0; i < extra; ++i) d.link(any(), any());
    auto random_route = [&] {  // destinations run up to n + 2
      if (d.link_count() == 0) return;
      const NodeId dst = pick(size + 3);
      d.set_route(any(), dst, d.link_at(rng.uniform_int(d.link_count())));
    };
    if (rng.uniform() < 0.3) random_route();
    d.compute_routes();
    d.expect_same("trial " + std::to_string(trial));
    if (rng.uniform() < 0.3) {
      random_route();
      d.expect_same("trial " + std::to_string(trial) + " after set_route");
    }
    if (rng.uniform() < 0.3) {
      d.link(any(), any());
      d.compute_routes();
      d.expect_same("trial " + std::to_string(trial) + " recomputed");
    }
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace slowcc::net
