#include <gtest/gtest.h>

#include <optional>

#include "cc/agent.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "scenario/dumbbell.hpp"
#include "traffic/cbr_source.hpp"

namespace slowcc {
namespace {

TEST(Packet, TypeNamesAreDistinct) {
  using net::PacketType;
  std::set<std::string> names;
  for (auto t : {PacketType::kData, PacketType::kAck, PacketType::kRapAck,
                 PacketType::kTfrcData, PacketType::kTfrcFeedback,
                 PacketType::kTearData, PacketType::kTearFeedback,
                 PacketType::kCbr}) {
    names.insert(net::to_string(t));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(Packet, DescribeContainsAddressingAndSeq) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = 7;
  p.src_node = 1;
  p.dst_node = 2;
  p.seq = 42;
  p.size_bytes = 1000;
  const std::string d = p.describe();
  EXPECT_NE(d.find("DATA"), std::string::npos);
  EXPECT_NE(d.find("flow=7"), std::string::npos);
  EXPECT_NE(d.find("seq=42"), std::string::npos);
  EXPECT_NE(d.find("1000B"), std::string::npos);
}

// A trivial concrete agent to exercise the shared Agent base.
class ProbeAgent final : public cc::Agent {
 public:
  using Agent::Agent;
  using Agent::inject;
  using Agent::make_packet;

  void start() override {}
  void stop() override {}
  void handle_packet(const net::Packet& p) override { last = std::move(p); }

  net::Packet last;
};

TEST(AgentBase, MakePacketStampsIdentity) {
  sim::Simulator sim;
  net::Node local(3);
  ProbeAgent agent(sim, local, /*peer_node=*/9, /*peer_port=*/5,
                   /*flow=*/77);
  agent.set_packet_size(512);
  const auto [h, p] = agent.make_packet(net::PacketType::kData);
  EXPECT_EQ(p.src_node, 3);
  EXPECT_EQ(p.src_port, agent.local_port());
  EXPECT_EQ(p.dst_node, 9);
  EXPECT_EQ(p.dst_port, 5);
  EXPECT_EQ(p.flow, 77);
  EXPECT_EQ(p.size_bytes, 512);
  // Born in the pool, with its final size already charged.
  net::PacketPool& pool = net::PacketPool::of(sim);
  EXPECT_EQ(&p, &pool.get(h));
  EXPECT_EQ(pool.live_bytes(), 512u);
  pool.release(h);
}

TEST(AgentBase, InjectCountsStats) {
  sim::Simulator sim;
  net::Node local(0);
  ProbeAgent agent(sim, local, 1, 1, 1);
  const auto [h, p] = agent.make_packet(net::PacketType::kData);
  agent.inject(h);  // no route: counted, then dropped by node
  EXPECT_EQ(agent.stats().packets_sent, 1u);
  EXPECT_EQ(agent.stats().bytes_sent, 1000);
  EXPECT_EQ(local.undeliverable_count(), 1u);
  EXPECT_EQ(net::PacketPool::of(sim).live(), 0u);
}

TEST(AgentBase, LocalDeliveryReachesHandler) {
  sim::Simulator sim;
  net::Node local(0);
  ProbeAgent receiver(sim, local, 0, 0, 1);
  net::Packet p;
  p.dst_node = 0;
  p.dst_port = receiver.local_port();
  p.seq = 5;
  net::PacketPool& pool = net::PacketPool::of(sim);
  local.deliver(pool.acquire(p).handle, pool);
  EXPECT_EQ(receiver.last.seq, 5);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(AgentBase, DestructionFreesPort) {
  sim::Simulator sim;
  net::Node local(0);
  net::PortId port;
  {
    ProbeAgent a(sim, local, 1, 1, 1);
    port = a.local_port();
  }
  // Port can be rebound after the agent is gone.
  ProbeAgent b(sim, local, 1, 1, 1);
  local.detach(b.local_port());
  local.attach(port, b);  // would throw if the old binding leaked
}

TEST(AgentBase, TwoAgentsOnOneNodeGetDistinctPorts) {
  sim::Simulator sim;
  net::Node local(0);
  ProbeAgent a(sim, local, 1, 1, 1);
  ProbeAgent b(sim, local, 1, 1, 2);
  EXPECT_NE(a.local_port(), b.local_port());
}

// ====================================================================
// Each builder's headers. The trace digests fold only (at, seq), so a
// wrong header field that no routing decision reads, such as an ACK's
// src_port, would pass them. One flow runs over a single duplex link;
// the link into each receiver records the first packet it carries.

struct FirstPacket final : net::LinkObserver {
  explicit FirstPacket(sim::Simulator& s) : sim(s) {}
  void on_arrival(const net::Packet& p) override {
    if (packet) return;
    packet = p;
    sent = sim.now();  // endpoints hand packets to their link at once
  }
  void on_depart(const net::Packet& /*p*/) override {
    if (!departed) departed = sim.now();
  }
  sim::Simulator& sim;
  std::optional<net::Packet> packet;
  sim::Time sent;
  std::optional<sim::Time> departed;
};

struct HeaderRig {
  static constexpr net::FlowId kFlow = 7;
  static constexpr std::int64_t kDataSize = 700;
  static constexpr sim::Time kDelay = sim::Time::millis(5);

  sim::Simulator sim;
  net::Topology topo{sim};
  net::Node& sender = topo.add_node("sender");
  net::Node& receiver = topo.add_node("receiver");
  FirstPacket data{sim};   // on the link into the receiver
  FirstPacket reply{sim};  // on the link back into the sender

  HeaderRig() {
    auto [fwd, rev] = topo.add_duplex(sender, receiver, 10e6, kDelay, 100);
    topo.compute_routes();
    fwd->add_observer(&data);
    rev->add_observer(&reply);
  }

  // Start `agent` at 100 ms and run for three seconds: TEAR's first
  // send waits a second, at its initial rate of one packet per second.
  void run(cc::Agent& agent) {
    sim.schedule_at(sim::Time::millis(100), [&agent] { agent.start(); });
    sim.run_until(sim::Time::millis(3100));
    agent.stop();
  }

  void expect_data(net::PacketType type, net::PortId src_port,
                   net::PortId dst_port) const {
    ASSERT_TRUE(data.packet.has_value());
    const net::Packet& p = *data.packet;
    EXPECT_EQ(p.type, type);
    EXPECT_EQ(p.src_node, sender.id());
    EXPECT_EQ(p.src_port, src_port);
    EXPECT_EQ(p.dst_node, receiver.id());
    EXPECT_EQ(p.dst_port, dst_port);
    EXPECT_EQ(p.flow, kFlow);
    EXPECT_EQ(p.size_bytes, kDataSize);
    EXPECT_EQ(p.seq, 0);
    EXPECT_EQ(p.sent_at, data.sent);
    EXPECT_EQ(p.echo, sim::Time());
  }

  // The receiver answers the first data packet as it arrives, echoing
  // that packet's timestamp.
  void expect_reply(net::PacketType type, std::int64_t seq,
                    net::PortId src_port, net::PortId dst_port) const {
    ASSERT_TRUE(data.packet.has_value() && data.departed.has_value());
    ASSERT_TRUE(reply.packet.has_value());
    const net::Packet& p = *reply.packet;
    EXPECT_EQ(p.type, type);
    EXPECT_EQ(p.src_node, receiver.id());
    EXPECT_EQ(p.src_port, src_port);
    EXPECT_EQ(p.dst_node, sender.id());
    EXPECT_EQ(p.dst_port, dst_port);
    EXPECT_EQ(p.flow, kFlow);
    EXPECT_EQ(p.size_bytes, 40);
    EXPECT_EQ(p.seq, seq);
    EXPECT_EQ(p.sent_at, *data.departed + kDelay);
    EXPECT_EQ(p.sent_at, reply.sent);
    EXPECT_EQ(p.echo, data.packet->sent_at);
    EXPECT_FALSE(p.ecn_marked);
  }

  // One flow of `spec`, built the way every scenario builds it.
  void expect_flow(scenario::FlowSpec spec, net::PacketType data_type,
                   net::PacketType reply_type, std::int64_t reply_seq) {
    spec.packet_size = kDataSize;
    auto [agent, sink] =
        scenario::make_flow_endpoints(sim, sender, receiver, kFlow, spec);
    run(*agent);
    expect_data(data_type, agent->local_port(), sink->local_port());
    expect_reply(reply_type, reply_seq, sink->local_port(),
                 agent->local_port());
  }
};

TEST(EndpointHeaders, Tcp) {
  HeaderRig rig;
  rig.expect_flow(scenario::FlowSpec::tcp(), net::PacketType::kData,
                  net::PacketType::kAck, /*reply_seq=*/1);
}

TEST(EndpointHeaders, Tfrc) {
  HeaderRig rig;
  rig.expect_flow(scenario::FlowSpec::tfrc(6), net::PacketType::kTfrcData,
                  net::PacketType::kTfrcFeedback, /*reply_seq=*/0);
}

TEST(EndpointHeaders, TfrcSelfClocked) {
  HeaderRig rig;
  rig.expect_flow(scenario::FlowSpec::tfrc(6, /*conservative=*/true),
                  net::PacketType::kTfrcData, net::PacketType::kTfrcFeedback,
                  /*reply_seq=*/0);
}

TEST(EndpointHeaders, Rap) {
  HeaderRig rig;
  rig.expect_flow(scenario::FlowSpec::rap(), net::PacketType::kData,
                  net::PacketType::kRapAck, /*reply_seq=*/0);
}

TEST(EndpointHeaders, Tear) {
  HeaderRig rig;
  rig.expect_flow(scenario::FlowSpec::tear(), net::PacketType::kTearData,
                  net::PacketType::kTearFeedback, /*reply_seq=*/0);
}

TEST(EndpointHeaders, Cbr) {
  HeaderRig rig;
  traffic::CbrSink sink(rig.sim, rig.receiver);
  traffic::CbrSource source(rig.sim, rig.sender, rig.receiver.id(),
                            sink.local_port(), HeaderRig::kFlow, 1e6);
  source.set_packet_size(HeaderRig::kDataSize);
  rig.run(source);
  rig.expect_data(net::PacketType::kCbr, source.local_port(),
                  sink.local_port());
  EXPECT_GT(sink.packets_received(), 0u);
  EXPECT_FALSE(rig.reply.packet.has_value()) << "CBR is open-loop";
}

}  // namespace
}  // namespace slowcc
