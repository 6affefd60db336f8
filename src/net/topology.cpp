#include "net/topology.hpp"

#include <queue>

namespace slowcc::net {

Node& Topology::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  // Not `"n" + std::to_string(id)`: GCC 12 flags that with a
  // -Wrestrict false positive in Release builds.
  if (name.empty()) name = std::to_string(id).insert(0, 1, 'n');
  nodes_.push_back(std::make_unique<Node>(id, std::move(name)));
  return *nodes_.back();
}

Link& Topology::add_link(Node& from, Node& to, double bandwidth_bps,
                         sim::Time propagation_delay,
                         std::unique_ptr<Queue> queue) {
  links_.push_back(std::make_unique<Link>(sim_, from, to, bandwidth_bps,
                                          propagation_delay,
                                          std::move(queue)));
  return *links_.back();
}

std::pair<Link*, Link*> Topology::add_duplex(Node& a, Node& b,
                                             double bandwidth_bps,
                                             sim::Time propagation_delay,
                                             std::size_t queue_limit) {
  Link& fwd = add_link(a, b, bandwidth_bps, propagation_delay,
                       std::make_unique<DropTailQueue>(queue_limit));
  Link& rev = add_link(b, a, bandwidth_bps, propagation_delay,
                       std::make_unique<DropTailQueue>(queue_limit));
  return {&fwd, &rev};
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();

  // Adjacency: for each node, outgoing links.
  std::vector<std::vector<Link*>> out(n);
  for (auto& l : links_) {
    out[static_cast<std::size_t>(l->from().id())].push_back(l.get());
  }

  // BFS from every destination over reversed edges would be the usual
  // trick, but topologies here are tiny (tens of nodes); a forward BFS
  // per source is simplest and sets next-hop links directly.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<Link*> first_hop(n, nullptr);
    std::vector<bool> visited(n, false);
    std::queue<std::size_t> frontier;
    visited[src] = true;
    frontier.push(src);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (Link* l : out[u]) {
        const std::size_t v = static_cast<std::size_t>(l->to().id());
        if (visited[v]) continue;
        visited[v] = true;
        first_hop[v] = (u == src) ? l : first_hop[u];
        frontier.push(v);
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst != src && first_hop[dst] != nullptr) {
        nodes_[src]->set_route(static_cast<NodeId>(dst), *first_hop[dst]);
      }
    }
  }
}

}  // namespace slowcc::net
