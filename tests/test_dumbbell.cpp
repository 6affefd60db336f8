#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/packet_pool.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/lane.hpp"
#include "sim/resource.hpp"

namespace slowcc::scenario {
namespace {

TEST(DumbbellConfig, PaperDefaults) {
  DumbbellConfig cfg;
  // RTT ~ 50 ms: 2 * (1 + 23 + 1) ms.
  EXPECT_EQ(cfg.base_rtt(), sim::Time::millis(50));
  // BDP at 10 Mb/s, 50 ms, 1000 B packets = 62.5 packets.
  EXPECT_NEAR(cfg.bdp_packets(), 62.5, 1e-9);
}

TEST(FlowSpec, LabelsAreHumanReadable) {
  EXPECT_EQ(FlowSpec::tcp(2).label(), "TCP(1/2)");
  EXPECT_EQ(FlowSpec::tcp(256).label(), "TCP(1/256)");
  EXPECT_EQ(FlowSpec::tfrc(6).label(), "TFRC(6)");
  EXPECT_EQ(FlowSpec::tfrc(256, true).label(), "TFRC(256)+SC");
  EXPECT_EQ(FlowSpec::sqrt(8).label(), "SQRT(1/8)");
  EXPECT_EQ(FlowSpec::rap(2).label(), "RAP(1/2)");
  EXPECT_EQ(FlowSpec::iiad().label(), "IIAD");
}

TEST(Dumbbell, EveryAlgorithmKindMovesData) {
  for (const FlowSpec& spec :
       {FlowSpec::tcp(), FlowSpec::tcp(8), FlowSpec::sqrt(), FlowSpec::iiad(),
        FlowSpec::rap(), FlowSpec::tfrc(6), FlowSpec::tfrc(6, true)}) {
    sim::Simulator sim;
    DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    Dumbbell net(sim, cfg);
    auto& flow = net.add_flow(spec);
    net.finalize();
    sim.schedule_at(sim::Time(), [&] { flow.agent->start(); });
    sim.run_until(sim::Time::seconds(15.0));
    EXPECT_GT(flow.sink->bytes_received(), 1'000'000)
        << "spec=" << spec.label();
  }
}

TEST(Dumbbell, OnlyTheRoutersHoldForwardingTables) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.reverse_tcp_flows = 2;
  Dumbbell net(sim, cfg);
  for (int i = 0; i < 4; ++i) net.add_flow(FlowSpec::tcp());
  net.add_reverse_traffic();
  net.finalize();
  net::Topology& topo = net.topology();
  const auto n = topo.node_count();
  ASSERT_EQ(n, 14u);  // two routers, two hosts per flow
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Node& from = topo.link(i).from();
    const bool router =
        &from == &net.left_router() || &from == &net.right_router();
    EXPECT_EQ(from.route_table_size(), router ? n : 0u) << from.name();
    // Every host reaches every other node through its one access link.
    for (net::NodeId dst = 0; dst < static_cast<net::NodeId>(n); ++dst) {
      if (!router && dst != from.id()) {
        EXPECT_EQ(from.next_hop(dst), &topo.link(i)) << from.name();
      }
    }
  }
}

TEST(Dumbbell, TearFlowMovesData) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.reverse_tcp_flows = 0;
  Dumbbell net(sim, cfg);
  FlowSpec spec;
  spec.kind = CcKind::kTear;
  auto& flow = net.add_flow(spec);
  net.finalize();
  sim.schedule_at(sim::Time(), [&] { flow.agent->start(); });
  sim.run_until(sim::Time::seconds(20.0));
  EXPECT_GT(flow.sink->bytes_received(), 1'000'000);
}

TEST(Dumbbell, ReverseTrafficFlowsAgainstGrain) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.reverse_tcp_flows = 2;
  Dumbbell net(sim, cfg);
  net.add_reverse_traffic();
  net.finalize();
  sim.run_until(sim::Time::seconds(10.0));
  std::int64_t reverse_bytes = 0;
  for (auto& f : net.flows()) {
    if (!f.forward) reverse_bytes += f.sink->bytes_received();
  }
  EXPECT_GT(reverse_bytes, 1'000'000);
  EXPECT_GT(net.reverse_bottleneck().stats().departures, 1000u);
}

TEST(Dumbbell, DropTailVariantWorks) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.red = false;
  cfg.reverse_tcp_flows = 0;
  Dumbbell net(sim, cfg);
  auto& flow = net.add_flow(FlowSpec::tcp());
  net.finalize();
  sim.schedule_at(sim::Time(), [&] { flow.agent->start(); });
  sim.run_until(sim::Time::seconds(10.0));
  EXPECT_GT(flow.sink->bytes_received(), 3'000'000);
}

TEST(Dumbbell, AddFlowAfterFinalizeThrows) {
  sim::Simulator sim;
  Dumbbell net(sim, DumbbellConfig{});
  net.finalize();
  EXPECT_THROW(net.add_flow(FlowSpec::tcp()), std::logic_error);
  EXPECT_THROW(net.add_cbr(1e6), std::logic_error);
}

TEST(Dumbbell, FlowReferencesStableAcrossAdds) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.reverse_tcp_flows = 0;
  Dumbbell net(sim, cfg);
  auto& first = net.add_flow(FlowSpec::tcp());
  cc::Agent* agent_before = first.agent;
  for (int i = 0; i < 50; ++i) net.add_flow(FlowSpec::tcp());
  EXPECT_EQ(first.agent, agent_before)
      << "references returned by add_flow must remain valid";
  EXPECT_EQ(first.id, 1);
}

TEST(Dumbbell, StaggeredStartIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    DumbbellConfig cfg;
    cfg.seed = seed;
    cfg.reverse_tcp_flows = 0;
    Dumbbell net(sim, cfg);
    auto& f1 = net.add_flow(FlowSpec::tcp());
    auto& f2 = net.add_flow(FlowSpec::tcp());
    net.start_flows();
    net.finalize();
    sim.run_until(sim::Time::seconds(5.0));
    return std::pair{f1.sink->bytes_received(), f2.sink->bytes_received()};
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

// Links keep in-flight packets in lanes the Simulator owns and every
// link shares. Tearing a busy topology down mid-run must take
// each dead link's entries out of those lanes and return their packets,
// so the pool balances and the Simulator carries on without them.
TEST(Dumbbell, DestroyedMidRunReturnsEveryPacketHeldInSharedLanes) {
  sim::Simulator sim;
  auto bed = std::make_unique<Dumbbell>(sim, DumbbellConfig{});
  for (int i = 0; i < 8; ++i) bed->add_flow(FlowSpec::tcp(2.0));
  bed->add_reverse_traffic();
  bed->start_flows();
  bed->finalize();
  sim.run_until(sim::Time::seconds(2));
  net::PacketPool& pool = net::PacketPool::of(sim);
  ASSERT_GT(pool.live(), 0u);
  ASSERT_GE(sim.lane_stats().most_live, 16u) << "the lanes must be busy";
  bed.reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(sim.lane_stats().in_use, 0u);
  EXPECT_EQ(sim.lane_stats().most_live, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(sim::Time::seconds(3));
}

// The governor's packet model is the pool: every packet in a queue, a
// transmitter or a lane counts, at every point of a run, and nothing
// is left once the topology is gone.
TEST(Dumbbell, GovernorCountsExactlyThePoolsPackets) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  const sim::ResourceGovernor& gov = sim.governor();
  auto bed = std::make_unique<Dumbbell>(sim, DumbbellConfig{});
  for (int i = 0; i < 4; ++i) bed->add_flow(FlowSpec::tcp());
  bed->add_reverse_traffic();
  bed->start_flows();
  bed->finalize();
  // Packets outside both bottleneck queues: in transmitters, on the
  // wire, or in access-link queues.
  std::size_t most_unqueued = 0;
  for (int slice = 1; slice <= 40; ++slice) {
    sim.run_until(sim::Time::millis(50 * slice));
    ASSERT_EQ(gov.live_packets(), pool.live()) << "slice " << slice;
    ASSERT_EQ(gov.queued_bytes(), pool.live_bytes()) << "slice " << slice;
    most_unqueued = std::max(
        most_unqueued, pool.live() -
                           bed->bottleneck().queue().length_packets() -
                           bed->reverse_bottleneck().queue().length_packets());
  }
  EXPECT_GT(most_unqueued, 0u);
  bed.reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(gov.live_packets(), 0u);
  EXPECT_EQ(gov.queued_bytes(), 0u);
}

}  // namespace
}  // namespace slowcc::scenario
