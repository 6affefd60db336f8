#include "cc/agent.hpp"

namespace slowcc::cc {

Endpoint::Endpoint(sim::Simulator& sim, net::Node& local)
    : sim_(sim),
      local_(local),
      pool_(net::PacketPool::of(sim)),
      local_port_(local.allocate_port()) {
  local_.attach(local_port_, *this);
}

Endpoint::~Endpoint() { local_.detach(local_port_); }

net::PooledPacket Endpoint::make_packet(net::PacketType type,
                                        net::NodeId dst_node,
                                        net::PortId dst_port,
                                        net::FlowId flow,
                                        std::int64_t size_bytes) {
  net::Packet p;
  p.type = type;
  p.src_node = local_.id();
  p.src_port = local_port_;
  p.dst_node = dst_node;
  p.dst_port = dst_port;
  p.flow = flow;
  p.size_bytes = size_bytes;
  p.sent_at = sim_.now();
  return pool_.acquire(p);
}

}  // namespace slowcc::cc
