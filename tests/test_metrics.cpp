#include <gtest/gtest.h>

#include <cmath>

#include "metrics/convergence.hpp"
#include "metrics/fairness.hpp"
#include "metrics/loss_rate_monitor.hpp"
#include "metrics/rate_sampler.hpp"
#include "metrics/smoothness.hpp"
#include "metrics/stabilization.hpp"
#include "metrics/throughput_monitor.hpp"
#include "metrics/utilization.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/topology.hpp"

namespace slowcc::metrics {
namespace {

// A rig that lets tests push packets through a real link at scripted
// times so the monitors see realistic event sequences.
struct MonitorRig {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Node& a{topo.add_node()};
  net::Node& b{topo.add_node()};
  net::Link& link;

  MonitorRig()
      : link(topo.add_link(a, b, 8e6, sim::Time::millis(1),
                           std::make_unique<net::DropTailQueue>(4))) {
    topo.compute_routes();
  }

  void send_at(sim::Time t, std::int64_t size = 1000, net::FlowId flow = 1,
               net::PacketType type = net::PacketType::kData) {
    sim.schedule_at(t, [this, size, flow, type] {
      net::Packet p;
      p.src_node = 0;
      p.dst_node = 1;
      p.flow = flow;
      p.size_bytes = size;
      p.type = type;
      net::PacketPool& pool = net::PacketPool::of(sim);
      a.deliver(pool.acquire(p).handle, pool);
    });
  }
};

TEST(ThroughputMonitor, BinsBytesByDepartureTime) {
  MonitorRig rig;
  ThroughputMonitor tp(rig.sim, rig.link, sim::Time::millis(100));
  rig.send_at(sim::Time::millis(10));   // departs ~11 ms -> bin 0
  rig.send_at(sim::Time::millis(150));  // bin 1
  rig.send_at(sim::Time::millis(160));  // bin 1
  rig.sim.run();
  EXPECT_EQ(tp.bytes_in_bin(0), 1000);
  EXPECT_EQ(tp.bytes_in_bin(1), 2000);
  EXPECT_EQ(tp.total_bytes(), 3000);
}

TEST(ThroughputMonitor, FilterSelectsFlows) {
  MonitorRig rig;
  ThroughputMonitor tp(rig.sim, rig.link, sim::Time::millis(100),
                       [](const net::Packet& p) { return p.flow == 7; });
  rig.send_at(sim::Time::millis(10), 1000, 7);
  rig.send_at(sim::Time::millis(20), 1000, 8);
  rig.sim.run();
  EXPECT_EQ(tp.total_bytes(), 1000);
}

TEST(ThroughputMonitor, RateBetweenUsesWholeBins) {
  MonitorRig rig;
  ThroughputMonitor tp(rig.sim, rig.link, sim::Time::millis(100));
  for (int i = 0; i < 10; ++i) {
    rig.send_at(sim::Time::millis(10 + i * 100));
  }
  rig.sim.run();
  // 10 kB over 1 s = 80 kbit/s.
  EXPECT_NEAR(tp.rate_bps_between(sim::Time(), sim::Time::seconds(1.0)),
              80e3, 1.0);
}

TEST(ThroughputMonitor, RateSeriesHasOneEntryPerBin) {
  MonitorRig rig;
  ThroughputMonitor tp(rig.sim, rig.link, sim::Time::millis(100));
  rig.send_at(sim::Time::millis(10));
  rig.sim.run();
  const auto series =
      tp.rate_series_bps(sim::Time(), sim::Time::millis(500));
  ASSERT_EQ(series.size(), 5u);
  EXPECT_NEAR(series[0], 1000 * 8.0 / 0.1, 1.0);
  EXPECT_DOUBLE_EQ(series[3], 0.0);
}

TEST(LossRateMonitor, CountsDropsAgainstArrivals) {
  MonitorRig rig;  // queue limit 4 -> burst of 10 loses 5
  LossRateMonitor lm(rig.sim, rig.link, sim::Time::millis(100));
  for (int i = 0; i < 10; ++i) rig.send_at(sim::Time::millis(10));
  rig.sim.run();
  EXPECT_EQ(lm.total_arrivals(), 10u);
  EXPECT_EQ(lm.total_drops(), 5u);
  EXPECT_NEAR(lm.loss_rate_in_bin(0), 0.5, 1e-9);
}

TEST(LossRateMonitor, TrailingWindowAverages) {
  MonitorRig rig;
  LossRateMonitor lm(rig.sim, rig.link, sim::Time::millis(100));
  // Bin 0: 10 arrivals 5 drops. Bins 1-9: 1 arrival, 0 drops.
  for (int i = 0; i < 10; ++i) rig.send_at(sim::Time::millis(10));
  for (int b = 1; b <= 9; ++b) rig.send_at(sim::Time::millis(b * 100 + 10));
  rig.sim.run();
  // Over the 10-bin window ending at bin 9: 19 arrivals, 5 drops.
  EXPECT_NEAR(lm.trailing_loss_rate(9, 10), 5.0 / 19.0, 1e-9);
  // Over a 1-bin window at bin 9: no drops.
  EXPECT_DOUBLE_EQ(lm.trailing_loss_rate(9, 1), 0.0);
}

TEST(RateSampler, ProducesPerIntervalRates) {
  sim::Simulator sim;
  std::int64_t counter = 0;
  RateSampler sampler(sim, sim::Time::millis(100),
                      [&counter] { return counter; });
  sampler.start_at(sim::Time());
  // 1000 bytes per 100 ms from t=0 to t=500ms.
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(sim::Time::millis(i * 100 - 1), [&counter] {
      counter += 1000;
    });
  }
  sim.run_until(sim::Time::millis(550));
  sampler.stop();
  ASSERT_GE(sampler.rates_bps().size(), 5u);
  EXPECT_NEAR(sampler.rates_bps()[1], 80e3, 1.0);
}

TEST(Smoothness, ConstantSeriesIsPerfectlySmooth) {
  EXPECT_DOUBLE_EQ(smoothness_metric({5e6, 5e6, 5e6, 5e6}), 1.0);
}

TEST(Smoothness, HalvingScoresOneHalf) {
  EXPECT_NEAR(smoothness_metric({4e6, 2e6, 2e6}), 0.5, 1e-12);
}

TEST(Smoothness, IdleBinsSkipped) {
  EXPECT_DOUBLE_EQ(smoothness_metric({0.0, 0.0, 0.0}), 1.0);
}

TEST(Smoothness, TransitionToSilenceIsWorstCase) {
  EXPECT_DOUBLE_EQ(smoothness_metric({5e6, 0.0, 5e6}), 0.0);
  EXPECT_TRUE(std::isinf(worst_rate_change({5e6, 0.0})));
}

TEST(Smoothness, CovZeroForConstant) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({3.0, 3.0, 3.0}), 0.0);
  EXPECT_GT(coefficient_of_variation({1.0, 5.0, 1.0, 5.0}), 0.5);
}

TEST(Fairness, JainIndexExtremes) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

TEST(Fairness, NormalizedShares) {
  const auto shares = normalized_shares({2e6, 6e6}, 8e6);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 0.5);
  EXPECT_DOUBLE_EQ(shares[1], 1.5);
}

TEST(Convergence, DetectsFairPoint) {
  // Flow 1 holds 9:1 for 50 bins, then 1:1 afterwards.
  std::vector<std::int64_t> f1, f2;
  for (int i = 0; i < 50; ++i) {
    f1.push_back(900);
    f2.push_back(100);
  }
  for (int i = 0; i < 100; ++i) {
    f1.push_back(500);
    f2.push_back(500);
  }
  const auto r = compute_convergence(f1, f2, sim::Time::millis(50),
                                     sim::Time(), 0.1);
  ASSERT_TRUE(r.converged);
  // Fair from bin 50; smoothing window 10 delays detection ~several
  // bins past that.
  EXPECT_GT(r.convergence_time_s, 50 * 0.05);
  EXPECT_LT(r.convergence_time_s, 70 * 0.05);
}

TEST(Convergence, NeverFairNeverConverges) {
  std::vector<std::int64_t> f1(100, 900), f2(100, 100);
  const auto r = compute_convergence(f1, f2, sim::Time::millis(50),
                                     sim::Time(), 0.1);
  EXPECT_FALSE(r.converged);
}

TEST(Convergence, BriefFairBlipDoesNotCount) {
  std::vector<std::int64_t> f1, f2;
  for (int i = 0; i < 100; ++i) {
    // One isolated fair bin at i=50 amid 9:1 skew.
    f1.push_back(i == 50 ? 500 : 900);
    f2.push_back(i == 50 ? 500 : 100);
  }
  const auto r = compute_convergence(f1, f2, sim::Time::millis(50),
                                     sim::Time(), 0.1,
                                     /*smooth=*/1, /*hold=*/5);
  EXPECT_FALSE(r.converged);
}

TEST(Utilization, FOfKReflectsAchievedShare) {
  MonitorRig rig;
  ThroughputMonitor tp(rig.sim, rig.link, sim::Time::millis(50));
  // 1000 B per 50 ms = 160 kb/s against a 320 kb/s "capacity" => 0.5.
  for (int i = 0; i < 40; ++i) rig.send_at(sim::Time::millis(5 + i * 50));
  rig.sim.run();
  const double f = f_of_k(tp, sim::Time(), 20, sim::Time::millis(50), 320e3);
  EXPECT_NEAR(f, 0.5, 0.05);
}

TEST(Stabilization, SyntheticSpikeAndRecovery) {
  MonitorRig rig;
  LossRateMonitor lm(rig.sim, rig.link, sim::Time::millis(50));
  // Steady phase (bins 0..39): 4 arrivals/bin, no drops.
  for (int b = 0; b < 40; ++b) {
    for (int k = 0; k < 4; ++k) rig.send_at(sim::Time::millis(b * 50 + k * 10));
  }
  // Congestion onset at bin 40: bursts of 10 (5 dropped) for 20 bins.
  for (int b = 40; b < 60; ++b) {
    for (int k = 0; k < 10; ++k) rig.send_at(sim::Time::millis(b * 50 + 1));
  }
  // Recovery (bins 60..99): clean again.
  for (int b = 60; b < 100; ++b) {
    for (int k = 0; k < 4; ++k) rig.send_at(sim::Time::millis(b * 50 + k * 10));
  }
  rig.sim.run();
  const auto r = compute_stabilization(
      lm, sim::Time(), sim::Time::seconds(2.0), sim::Time::seconds(2.0),
      sim::Time::seconds(5.0));
  ASSERT_TRUE(r.stabilized);
  // High loss for 20 bins then a 10-bin window must drain: expect
  // stabilization between 20 and 40 bins.
  EXPECT_GT(r.stabilization_time_rtts, 19.0);
  EXPECT_LT(r.stabilization_time_rtts, 41.0);
  EXPECT_GT(r.stabilization_cost, 1.0);
}

}  // namespace
}  // namespace slowcc::metrics
