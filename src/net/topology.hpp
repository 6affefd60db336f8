#pragma once

#include <memory>
#include <vector>

#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/red_queue.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {

/// Owner of a simulated network graph.
///
/// Builds nodes and (unidirectional) links, then computes static
/// hop-count shortest-path routes. All experiments in this library use
/// dumbbell topologies, but the builder is general.
class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(sim) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Create a node; the returned reference is stable for the lifetime
  /// of the topology.
  Node& add_node(std::string name = {});

  /// Create a unidirectional link `from -> to`.
  Link& add_link(Node& from, Node& to, double bandwidth_bps,
                 sim::Time propagation_delay, std::unique_ptr<Queue> queue);

  /// Create a pair of links with identical parameters and independent
  /// drop-tail queues of `queue_limit` packets. Returns {forward,
  /// reverse}.
  std::pair<Link*, Link*> add_duplex(Node& a, Node& b, double bandwidth_bps,
                                     sim::Time propagation_delay,
                                     std::size_t queue_limit);

  /// Route every node to every node it can reach, along a shortest path
  /// by hop count; among equal-length paths the first hop is the
  /// earliest-created link. Unreachable pairs get no route, and entries
  /// for them set earlier stay. Must be called after the graph is final
  /// and before traffic starts; it may be called again after the graph
  /// grows.
  ///
  /// Linear in the graph for a strongly connected one where few nodes
  /// branch (every dumbbell): a node with exactly one outgoing link gets
  /// it as its default route (Node::set_default_route) for every
  /// destination, and only nodes with two or more run a BFS and fill
  /// their table. In a graph that is not strongly connected every node
  /// runs a BFS.
  void compute_routes();

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Links in creation order, so auditors can watch the whole graph.
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] Link& link(std::size_t index) { return *links_.at(index); }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace slowcc::net
