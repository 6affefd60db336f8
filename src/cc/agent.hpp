#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace slowcc::cc {

/// Counters every sending agent maintains.
struct AgentStats {
  std::uint64_t packets_sent = 0;    // includes retransmissions
  std::int64_t bytes_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;        // retransmit-timer expirations
  std::uint64_t acks_received = 0;   // ack/feedback packets processed
  std::uint64_t congestion_events = 0;  // window/rate reductions
};

/// What senders and sinks share: a port on their node, and the one way
/// a packet leaves an endpoint. The packet is born in the simulation's
/// pool already addressed, the caller fills in its payload fields
/// through the reference it gets back, and its handle goes to the
/// local node, which routes it (DESIGN.md §14.2).
class Endpoint : public net::PacketHandler {
 public:
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] net::PortId local_port() const noexcept { return local_port_; }
  [[nodiscard]] net::Node& local_node() noexcept { return local_; }

 protected:
  Endpoint(sim::Simulator& sim, net::Node& local);
  ~Endpoint() override;

  /// Acquire a packet from this endpoint to `dst_node`:`dst_port`,
  /// stamped with `flow`, `size_bytes` and the current time. The size is
  /// final: the pool charges it at acquire.
  [[nodiscard]] net::PooledPacket make_packet(net::PacketType type,
                                              net::NodeId dst_node,
                                              net::PortId dst_port,
                                              net::FlowId flow,
                                              std::int64_t size_bytes);

  /// Hand a packet from make_packet to the local node.
  void send(net::PacketHandle h) { local_.deliver(h, pool_); }

  sim::Simulator& sim_;
  net::Node& local_;
  net::PacketPool& pool_;
  net::PortId local_port_;
};

/// Base class for sending transport endpoints.
///
/// An agent exchanges packets with a peer endpoint (a sink) identified
/// by node + port. Subclasses implement the congestion control
/// algorithm; this class provides the data packets' addressing and the
/// counted injection path.
class Agent : public Endpoint {
 public:
  Agent(sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
        net::PortId peer_port, net::FlowId flow)
      : Endpoint(sim, local),
        peer_node_(peer_node),
        peer_port_(peer_port),
        flow_(flow) {}

  /// Begin transmitting. Idempotent.
  virtual void start() = 0;

  /// Stop transmitting and cancel timers. The agent stays attached so
  /// late packets are absorbed quietly. Idempotent.
  virtual void stop() = 0;

  [[nodiscard]] const AgentStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::FlowId flow() const noexcept { return flow_; }

  /// Data segment size used by this flow, bytes (default 1000).
  void set_packet_size(std::int64_t bytes) noexcept { packet_size_ = bytes; }
  [[nodiscard]] std::int64_t packet_size() const noexcept {
    return packet_size_;
  }

 protected:
  /// Acquire a packet of `packet_size()` bytes addressed to the peer
  /// with this agent's identity stamped on it.
  [[nodiscard]] net::PooledPacket make_packet(net::PacketType type) {
    return Endpoint::make_packet(type, peer_node_, peer_port_, flow_,
                                 packet_size_);
  }

  /// Send a packet from make_packet, counting it. Its size is the
  /// packet_size() it was acquired with.
  void inject(net::PacketHandle h) {
    ++stats_.packets_sent;
    stats_.bytes_sent += packet_size_;
    send(h);
  }

  net::NodeId peer_node_;
  net::PortId peer_port_;
  net::FlowId flow_;
  std::int64_t packet_size_ = 1000;
  AgentStats stats_;
};

/// Base class for receiving endpoints; counts goodput so experiments
/// can measure per-flow throughput where the paper does (at the
/// receiver), and remembers the sender of the latest data packet so
/// every reply goes back to it.
class SinkBase : public Endpoint {
 public:
  using Endpoint::Endpoint;

  [[nodiscard]] std::int64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t packets_received() const noexcept {
    return packets_received_;
  }

 protected:
  /// Count a data packet and record its sender and timestamp.
  void note_received(const net::Packet& p) {
    bytes_received_ += p.size_bytes;
    ++packets_received_;
    peer_node_ = p.src_node;
    peer_port_ = p.src_port;
    peer_flow_ = p.flow;
    peer_stamp_ = p.sent_at;
  }

  /// Acquire a reply of `size_bytes` to the latest data packet's
  /// sender, in its flow, echoing that packet's timestamp.
  [[nodiscard]] net::PooledPacket make_reply(net::PacketType type,
                                             std::int64_t size_bytes) {
    net::PooledPacket reply = Endpoint::make_packet(
        type, peer_node_, peer_port_, peer_flow_, size_bytes);
    reply.packet.echo = peer_stamp_;
    return reply;
  }

 private:
  std::int64_t bytes_received_ = 0;
  std::uint64_t packets_received_ = 0;
  net::NodeId peer_node_ = net::kInvalidNode;
  net::PortId peer_port_ = 0;
  net::FlowId peer_flow_ = 0;
  sim::Time peer_stamp_;  // sent_at of the latest data packet
};

}  // namespace slowcc::cc
