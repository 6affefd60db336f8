#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "traffic/cbr_source.hpp"
#include "traffic/flash_crowd.hpp"
#include "traffic/loss_script.hpp"
#include "traffic/onoff_pattern.hpp"

namespace slowcc::traffic {
namespace {

struct CbrRig {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Node& src{topo.add_node()};
  net::Node& dst{topo.add_node()};
  CbrSink sink{sim, dst};
  std::unique_ptr<CbrSource> cbr;

  explicit CbrRig(double rate = 1e6) {
    topo.add_duplex(src, dst, 100e6, sim::Time::millis(1), 1000);
    cbr = std::make_unique<CbrSource>(sim, src, dst.id(), sink.local_port(),
                                      1, rate);
    topo.compute_routes();
  }
};

TEST(Cbr, DeliversAtConfiguredRate) {
  CbrRig rig(1e6);
  rig.cbr->start();
  rig.sim.run_until(sim::Time::seconds(10.0));
  const double rate = rig.sink.bytes_received() * 8.0 / 10.0;
  EXPECT_NEAR(rate, 1e6, 0.02e6);
}

TEST(Cbr, RateChangeTakesEffect) {
  CbrRig rig(1e6);
  rig.cbr->start();
  rig.sim.run_until(sim::Time::seconds(5.0));
  const auto bytes_at_5 = rig.sink.bytes_received();
  rig.cbr->set_rate_bps(4e6);
  rig.sim.run_until(sim::Time::seconds(10.0));
  const double second_half =
      static_cast<double>(rig.sink.bytes_received() - bytes_at_5) * 8.0 / 5.0;
  EXPECT_NEAR(second_half, 4e6, 0.1e6);
}

TEST(Cbr, ZeroRatePausesAndResumes) {
  CbrRig rig(1e6);
  rig.cbr->start();
  rig.sim.run_until(sim::Time::seconds(2.0));
  rig.cbr->set_rate_bps(0.0);
  const auto frozen = rig.sink.bytes_received();
  rig.sim.run_until(sim::Time::seconds(4.0));
  EXPECT_NEAR(static_cast<double>(rig.sink.bytes_received()),
              static_cast<double>(frozen), 1000.0);
  rig.cbr->set_rate_bps(1e6);
  rig.sim.run_until(sim::Time::seconds(6.0));
  EXPECT_GT(rig.sink.bytes_received(), frozen + 100'000);
}

TEST(Cbr, RejectsNegativeRate) {
  EXPECT_THROW(CbrRig rig(-1.0), std::invalid_argument);
}

TEST(OnOff, SquareWaveDutyCycleIsHalf) {
  CbrRig rig(0.0);
  OnOffPattern pattern(rig.sim, *rig.cbr, PatternKind::kSquare, 2e6,
                       sim::Time::millis(500), sim::Time::millis(500));
  pattern.start_at(sim::Time());
  rig.sim.run_until(sim::Time::seconds(10.0));
  pattern.stop();
  // 2 Mb/s half the time = 1 Mb/s average.
  const double rate = rig.sink.bytes_received() * 8.0 / 10.0;
  EXPECT_NEAR(rate, 1e6, 0.1e6);
}

TEST(OnOff, SawtoothAveragesHalfPeakWhileOn) {
  CbrRig rig(0.0);
  OnOffPattern pattern(rig.sim, *rig.cbr, PatternKind::kSawtooth, 2e6,
                       sim::Time::seconds(1.0), sim::Time::seconds(1.0), 32);
  pattern.start_at(sim::Time());
  rig.sim.run_until(sim::Time::seconds(20.0));
  pattern.stop();
  // Ramp 0..peak for half the time: average ~ peak/4.
  const double rate = rig.sink.bytes_received() * 8.0 / 20.0;
  EXPECT_NEAR(rate, 0.5e6, 0.15e6);
}

TEST(OnOff, ForceOnOffOverridesPattern) {
  CbrRig rig(0.0);
  OnOffPattern pattern(rig.sim, *rig.cbr, PatternKind::kSquare, 2e6,
                       sim::Time::seconds(1.0), sim::Time::seconds(1.0));
  pattern.force_on();
  rig.sim.run_until(sim::Time::seconds(2.0));
  const auto with_on = rig.sink.bytes_received();
  EXPECT_GT(with_on, 0);
  pattern.force_off();
  rig.sim.run_until(sim::Time::seconds(4.0));
  EXPECT_NEAR(static_cast<double>(rig.sink.bytes_received()),
              static_cast<double>(with_on), 1500.0);
}

TEST(FlashCrowd, SpawnsApproximatelyRateTimesDuration) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node& src = topo.add_node();
  net::Node& dst = topo.add_node();
  topo.add_duplex(src, dst, 100e6, sim::Time::millis(1), 1000);
  FlashCrowdConfig cfg;
  cfg.arrival_rate_fps = 100.0;
  cfg.duration = sim::Time::seconds(2.0);
  FlashCrowd crowd(sim, src, dst, cfg);
  topo.compute_routes();
  crowd.start_at(sim::Time::seconds(1.0));
  sim.run_until(sim::Time::seconds(10.0));
  EXPECT_NEAR(static_cast<double>(crowd.flows_started()), 200.0, 40.0);
  // On an uncongested fat pipe, every 10-packet transfer completes.
  EXPECT_EQ(crowd.flows_completed(), crowd.flows_started());
  EXPECT_GT(crowd.mean_completion_seconds(), 0.0);
  EXPECT_LT(crowd.mean_completion_seconds(), 1.0);
  EXPECT_EQ(crowd.total_bytes_received(),
            static_cast<std::int64_t>(crowd.flows_started()) * 10 * 1000);
}

TEST(FlashCrowd, OwnsFlowIdentifiesCrowdRange) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node& src = topo.add_node();
  net::Node& dst = topo.add_node();
  topo.add_duplex(src, dst, 100e6, sim::Time::millis(1), 1000);
  FlashCrowdConfig cfg;
  cfg.arrival_rate_fps = 50.0;
  cfg.duration = sim::Time::seconds(1.0);
  FlashCrowd crowd(sim, src, dst, cfg);
  topo.compute_routes();
  crowd.start_at(sim::Time());
  sim.run_until(sim::Time::seconds(5.0));
  EXPECT_TRUE(crowd.owns_flow(cfg.first_flow_id));
  EXPECT_FALSE(crowd.owns_flow(1));
  EXPECT_FALSE(crowd.owns_flow(
      cfg.first_flow_id + static_cast<net::FlowId>(crowd.flows_started())));
}

TEST(CountedLossScript, DropsExactlyAfterEachSpacing) {
  CountedLossScript script({3, 5});
  net::Packet p;
  p.type = net::PacketType::kData;
  std::vector<int> dropped_at;
  for (int i = 0; i < 20; ++i) {
    if (script.should_drop(p)) dropped_at.push_back(i);
  }
  // Admit 3 (0,1,2), drop 3; admit 5 (4..8), drop 9; admit 3, drop 13; ...
  EXPECT_EQ(dropped_at, (std::vector<int>{3, 9, 13, 19}));
  EXPECT_EQ(script.drops(), 4);
}

TEST(CountedLossScript, InstalledFilterIgnoresAcks) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node& a = topo.add_node();
  net::Node& b = topo.add_node();
  auto [fwd, rev] = topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  (void)rev;
  topo.compute_routes();
  CountedLossScript script({0x7fffffff});  // never drops by count
  // Use spacing 1 so the second data packet would drop.
  CountedLossScript tight({1});
  tight.install(*fwd);
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.src_node = 0;
  ack.dst_node = 1;
  net::PacketPool& pool = net::PacketPool::of(sim);
  for (int i = 0; i < 10; ++i) a.deliver(pool.acquire(ack).handle, pool);
  sim.run();
  EXPECT_EQ(fwd->stats().drops_forced, 0u) << "ACKs are never script-dropped";
}

TEST(CountedLossScript, RejectsEmptyAndBadSpacing) {
  EXPECT_THROW(CountedLossScript({}), std::invalid_argument);
  EXPECT_THROW(CountedLossScript({0}), std::invalid_argument);
}

TEST(TimedPhaseLossScript, AlternatesPhasesByTime) {
  sim::Simulator sim;
  TimedPhaseLossScript script(
      sim, {{sim::Time::seconds(1.0), 2}, {sim::Time::seconds(1.0), 1000}});
  net::Packet p;
  p.type = net::PacketType::kData;
  int drops_phase1 = 0;
  for (int i = 0; i < 100; ++i) {
    if (script.should_drop(p)) ++drops_phase1;
  }
  EXPECT_EQ(drops_phase1, 50) << "phase 1 drops every 2nd packet";
  // Advance into phase 2.
  sim.schedule_at(sim::Time::seconds(1.5), [] {});
  sim.run();
  int drops_phase2 = 0;
  for (int i = 0; i < 100; ++i) {
    if (script.should_drop(p)) ++drops_phase2;
  }
  EXPECT_EQ(drops_phase2, 0) << "phase 2 drops every 1000th packet";
}

TEST(TimedPhaseLossScript, WrapsAroundCycle) {
  sim::Simulator sim;
  TimedPhaseLossScript script(
      sim, {{sim::Time::seconds(1.0), 2}, {sim::Time::seconds(1.0), 1000}});
  net::Packet p;
  p.type = net::PacketType::kData;
  (void)script.should_drop(p);  // anchor the phase clock at t=0
  // Jump a full cycle + a bit: back in phase 1.
  sim.schedule_at(sim::Time::seconds(2.5), [] {});
  sim.run();
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (script.should_drop(p)) ++drops;
  }
  EXPECT_EQ(drops, 50);
}

TEST(TimedPhaseLossScript, RejectsBadPhases) {
  sim::Simulator sim;
  EXPECT_THROW(TimedPhaseLossScript(sim, {}), std::invalid_argument);
  EXPECT_THROW(TimedPhaseLossScript(sim, {{sim::Time(), 2}}),
               std::invalid_argument);
  EXPECT_THROW(TimedPhaseLossScript(sim, {{sim::Time::seconds(1.0), 0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace slowcc::traffic
