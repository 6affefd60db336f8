#include "net/topology.hpp"

#include <algorithm>

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

namespace {

std::size_t node_index(const Node& node) {
  return static_cast<std::size_t>(node.id());
}

// Links grouped by one end, in creation order within each group (a
// counting sort, so it is stable): node u's group is
// links[begin[u] .. begin[u + 1]).
struct LinkGroups {
  std::vector<std::size_t> begin;
  std::vector<Link*> links;
};

template <typename End>
LinkGroups group_links(std::size_t n,
                       const std::vector<std::unique_ptr<Link>>& all,
                       End end) {
  LinkGroups g;
  g.begin.assign(n + 1, 0);
  for (const auto& l : all) ++g.begin[node_index(end(*l)) + 1];
  for (std::size_t u = 0; u < n; ++u) g.begin[u + 1] += g.begin[u];
  std::vector<std::size_t> next(g.begin.begin(), g.begin.end() - 1);
  g.links.resize(all.size());
  for (const auto& l : all) g.links[next[node_index(end(*l))]++] = l.get();
  return g;
}

// Whether a BFS from node 0 over `g` reaches all `n` nodes; `far` names
// the node at a link's other end.
template <typename Far>
bool reaches_all_from_zero(const LinkGroups& g, std::size_t n, Far far) {
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> frontier{0};
  seen[0] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t u = frontier[head];
    for (std::size_t i = g.begin[u]; i < g.begin[u + 1]; ++i) {
      const std::size_t v = node_index(far(*g.links[i]));
      if (seen[v] == 0) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  return frontier.size() == n;
}

}  // namespace

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  if (n == 0) return;
  const LinkGroups out =
      group_links(n, links_, [](Link& l) -> Node& { return l.from(); });

  // In a strongly connected graph a node with one outgoing link reaches
  // every other node through it, so that link is its first hop to every
  // destination and a default route says so without a table. Only
  // branching nodes (and every node of a graph that is not strongly
  // connected) need a BFS. A dumbbell has two branching nodes, so this
  // is linear in its size.
  const bool strongly_connected =
      reaches_all_from_zero(out, n, [](Link& l) -> Node& { return l.to(); }) &&
      reaches_all_from_zero(
          group_links(n, links_, [](Link& l) -> Node& { return l.to(); }), n,
          [](Link& l) -> Node& { return l.from(); });

  // Hop-count BFS per branching source, visiting each node's links in
  // creation order, so ties between equal-length paths go to the
  // earliest-created link. `first_hop` doubles as the visited mark (the
  // source has none), and the frontier is one flat array; both are
  // reused by every pass.
  std::vector<Link*> first_hop(n);
  std::vector<std::size_t> frontier;
  frontier.reserve(n);
  for (std::size_t src = 0; src < n; ++src) {
    Node& node = *nodes_[src];
    if (strongly_connected && out.begin[src + 1] - out.begin[src] == 1) {
      node.set_default_route(*out.links[out.begin[src]], n);
      continue;
    }
    std::fill(first_hop.begin(), first_hop.end(), nullptr);
    frontier.assign(1, src);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t u = frontier[head];
      for (std::size_t i = out.begin[u]; i < out.begin[u + 1]; ++i) {
        Link* l = out.links[i];
        const std::size_t v = node_index(l->to());
        if (v == src || first_hop[v] != nullptr) continue;
        first_hop[v] = u == src ? l : first_hop[u];
        frontier.push_back(v);
      }
    }
    node.set_routes(first_hop);
  }
}

}  // namespace slowcc::net
