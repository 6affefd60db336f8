#include "net/node.hpp"

#include <algorithm>

#include "sim/error.hpp"

#include "net/link.hpp"

namespace slowcc::net {

void Node::attach(PortId port, PacketHandler& handler) {
  if (port < 0 || lookup(handlers_, port) != nullptr) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Node",
                        "attach: port " + std::to_string(port) +
                            (port < 0 ? " is negative" : " already bound") +
                            " on node " + std::to_string(id_));
  }
  const auto idx = static_cast<std::size_t>(port);
  if (idx >= handlers_.size()) handlers_.resize(idx + 1, nullptr);
  handlers_[idx] = &handler;
}

void Node::detach(PortId port) noexcept {
  if (lookup(handlers_, port) != nullptr) {
    handlers_[static_cast<std::size_t>(port)] = nullptr;
  }
}

void Node::set_route(NodeId dst, Link& out) {
  if (dst < 0) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Node",
                        "set_route: negative destination " +
                            std::to_string(dst) + " on node " +
                            std::to_string(id_));
  }
  const auto idx = static_cast<std::size_t>(dst);
  if (idx >= routes_.size()) routes_.resize(idx + 1, nullptr);
  routes_[idx] = &out;
}

void Node::set_default_route(Link& out, std::size_t n) {
  if (routes_.size() <= n) {
    routes_ = {};
  } else {
    std::fill_n(routes_.begin(), n, nullptr);
  }
  default_route_ = &out;
  default_bound_ = n;
}

void Node::set_routes(std::span<Link* const> first_hop) {
  default_route_ = nullptr;
  default_bound_ = 0;
  if (routes_.size() < first_hop.size()) {
    routes_.resize(first_hop.size(), nullptr);
  }
  for (std::size_t dst = 0; dst < first_hop.size(); ++dst) {
    if (first_hop[dst] != nullptr) routes_[dst] = first_hop[dst];
  }
}

void Node::deliver(PacketHandle h, PacketPool& pool) {
  Packet& p = pool.get(h);
  if (p.dst_node == id_) {
    if (PacketHandler* handler = lookup(handlers_, p.dst_port)) {
      // Zero-copy terminal dispatch: `p` aliases the pool slot, which
      // stays put even if the handler reentrantly injects new packets
      // (chunked pool storage never moves live slots).
      handler->handle_packet(p);
    } else {
      ++undeliverable_;
    }
    pool.release(h);
    return;
  }
  Link* out = next_hop(p.dst_node);
  if (out == nullptr) {
    ++undeliverable_;
    pool.release(h);
    return;
  }
  // `h` was checked above; the link takes it without a second lookup.
  out->enter(h, p);
}

}  // namespace slowcc::net
