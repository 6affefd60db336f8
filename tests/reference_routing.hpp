#pragma once

// Reference routing: the differential oracle for
// net::Topology::compute_routes.
//
// The per-source BFS written down directly: for every source node a
// fresh hop-count BFS over the links in creation order, and one table
// entry written for every destination it reaches, overwriting whatever
// was there. Entries for unreachable destinations, for the source
// itself and for ids past the graph are left as they were, and a lookup
// is the table entry or nothing: there is no default route. set_route
// mirrors net::Node::set_route, so a test can interleave explicit
// entries with route computations on both. Slow and obviously correct
// on purpose; only tests/test_topology.cpp uses it.

#include <cstddef>
#include <queue>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"

namespace slowcc::test {

class ReferenceRouting {
 public:
  // Mirror of `topo`'s nodes[from].set_route(dst, out).
  void set_route(net::NodeId from, net::NodeId dst, net::Link& out) {
    auto& table = table_for(from);
    const auto idx = static_cast<std::size_t>(dst);
    if (idx >= table.size()) table.resize(idx + 1, nullptr);
    table[idx] = &out;
  }

  // Mirror of topo.compute_routes().
  void compute_routes(net::Topology& topo) {
    const std::size_t n = topo.node_count();
    std::vector<std::vector<net::Link*>> out(n);
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      net::Link& l = topo.link(i);
      out[static_cast<std::size_t>(l.from().id())].push_back(&l);
    }
    for (std::size_t src = 0; src < n; ++src) {
      std::vector<net::Link*> first_hop(n, nullptr);
      std::vector<bool> visited(n, false);
      std::queue<std::size_t> frontier;
      visited[src] = true;
      frontier.push(src);
      while (!frontier.empty()) {
        const std::size_t u = frontier.front();
        frontier.pop();
        for (net::Link* l : out[u]) {
          const auto v = static_cast<std::size_t>(l->to().id());
          if (visited[v]) continue;
          visited[v] = true;
          first_hop[v] = (u == src) ? l : first_hop[u];
          frontier.push(v);
        }
      }
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst != src && first_hop[dst] != nullptr) {
          set_route(static_cast<net::NodeId>(src),
                    static_cast<net::NodeId>(dst), *first_hop[dst]);
        }
      }
    }
  }

  // The link a packet for `dst` leaves `from` on, or nullptr.
  [[nodiscard]] net::Link* next_hop(net::NodeId from, net::NodeId dst) const {
    const auto f = static_cast<std::size_t>(from);
    if (f >= tables_.size() || dst < 0) return nullptr;
    const auto idx = static_cast<std::size_t>(dst);
    return idx < tables_[f].size() ? tables_[f][idx] : nullptr;
  }

 private:
  std::vector<net::Link*>& table_for(net::NodeId from) {
    const auto f = static_cast<std::size_t>(from);
    if (f >= tables_.size()) tables_.resize(f + 1);
    return tables_[f];
  }

  std::vector<std::vector<net::Link*>> tables_;  // by source NodeId
};

}  // namespace slowcc::test
