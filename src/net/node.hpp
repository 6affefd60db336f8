#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

namespace slowcc::net {

class Link;

/// Anything that terminates packets at a node: transport agents, sinks,
/// traffic generators' receivers.
///
/// Handlers receive the packet by const reference into its pool slot,
/// which the Node releases right after the call returns. Handlers
/// needing the packet beyond the call copy what they keep — in
/// practice they read a few header fields, which is why the zero-copy
/// terminal dispatch is free.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle_packet(const Packet& p) = 0;
};

/// A network node: hosts local handlers (keyed by port) and forwards
/// transit packets via a static forwarding table (keyed by destination
/// node) backed by an optional default route. Both tables are flat
/// vectors indexed by the id: ports come from `allocate_port` and node
/// ids from `Topology`, so both are dense and small, and a hop costs two
/// bounds-checked loads instead of two hash lookups. A node with a
/// single outgoing link (every dumbbell host) holds no forwarding table
/// at all, only its default route.
///
/// Routing is static and computed once by `Topology::compute_routes`;
/// the paper's scenarios never change topology mid-run (bandwidth
/// changes are modeled by competing traffic, as in the paper).
class Node {
 public:
  explicit Node(NodeId id, std::string name = {})
      : id_(id), name_(std::move(name)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Bind `handler` to a local port. Packets addressed to this node and
  /// port are handed to it. Throws SimError (kBadTopology) if the port
  /// is taken or negative.
  void attach(PortId port, PacketHandler& handler);

  /// Release a port binding (used when short flows finish); no-op when
  /// the port is not bound.
  void detach(PortId port) noexcept;

  /// Install/replace the outgoing link for packets destined to `dst`.
  /// A table entry wins over the default route. Throws SimError
  /// (kBadTopology) if `dst` is negative.
  void set_route(NodeId dst, Link& out);

  /// Route every destination in [0, n) over `out`: the table entries
  /// below `n` are dropped and `out` becomes the default route for that
  /// range. Entries at `n` and above, and later `set_route` calls,
  /// still win.
  void set_default_route(Link& out, std::size_t n);

  /// Install `first_hop[dst]` for every `dst` whose entry is non-null,
  /// in one pass, and drop the default route. Other table entries stay.
  void set_routes(std::span<Link* const> first_hop);

  /// The link a packet for `dst` leaves on: the table entry, else the
  /// default route when `dst` is in its range, else nullptr.
  [[nodiscard]] Link* next_hop(NodeId dst) const noexcept {
    if (Link* out = lookup(routes_, dst)) return out;
    return dst >= 0 && static_cast<std::size_t>(dst) < default_bound_
               ? default_route_
               : nullptr;
  }

  /// Accept a pooled packet arriving at this node, from a link or from
  /// a local endpoint: a packet addressed here dispatches by reference
  /// into its pool slot and the handle is released; a transit packet
  /// passes its handle to the next link untouched. Packets with no
  /// local handler or no route are counted and released (this happens
  /// legitimately when a short web flow has already torn down), so the
  /// node never leaks pool slots. `pool` is the simulation's pool
  /// (PacketPool::of), which the node's links share. The handle is
  /// checked here, once per hop: a stale one throws
  /// SimError(kInvariantViolation).
  void deliver(PacketHandle h, PacketPool& pool);

  /// Allocate a node-unique port (monotonically increasing).
  [[nodiscard]] PortId allocate_port() noexcept { return next_port_++; }

  /// Entries in the forwarding table, 0 for a node that routes by its
  /// default route alone.
  [[nodiscard]] std::size_t route_table_size() const noexcept {
    return routes_.size();
  }

  [[nodiscard]] std::uint64_t undeliverable_count() const noexcept {
    return undeliverable_;
  }

 private:
  // Table entry for `key`, or nullptr when it is negative, past the end
  // or unset.
  template <typename T>
  [[nodiscard]] static T* lookup(const std::vector<T*>& table,
                                 std::int32_t key) noexcept {
    const auto idx = static_cast<std::size_t>(key);
    return key >= 0 && idx < table.size() ? table[idx] : nullptr;
  }

  NodeId id_;
  std::string name_;
  std::vector<PacketHandler*> handlers_;  // by PortId; nullptr = unbound
  std::vector<Link*> routes_;             // by NodeId; nullptr = no entry
  Link* default_route_ = nullptr;         // for ids in [0, default_bound_)
  std::size_t default_bound_ = 0;
  PortId next_port_ = 1;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace slowcc::net
