// FaultScript/FaultInjector scheduling, the InvariantAuditor, and the
// acceptance scenario: a dumbbell with a mid-run blackout plus
// Gilbert-Elliott wire loss runs clean under audit and reproduces
// byte-identical LinkStats for the same seed.
#include <gtest/gtest.h>

#include "fault/fault_script.hpp"
#include "fault/impairment.hpp"
#include "fault/invariant_auditor.hpp"
#include "net/drop_tail_queue.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/oscillation_experiment.hpp"
#include "sim/error.hpp"

namespace slowcc {
namespace {

struct Rig {
  sim::Simulator sim;
  net::Node a{0, "a"};
  net::Node b{1, "b"};
  net::Link link;

  Rig() : link(sim, a, b, 8e6, sim::Time::millis(10),
               std::make_unique<net::DropTailQueue>(16)) {
    a.set_route(1, link);
  }

  // Offer a copy of `p` the way the network does: its source node
  // routes it onto the link.
  void send(const net::Packet& p) {
    net::PacketPool& pool = net::PacketPool::of(sim);
    a.deliver(pool.acquire(p).handle, pool);
  }
};

TEST(FaultScript, CompoundHelpersExpandToPrimitives) {
  Rig rig;
  fault::FaultScript script;
  script.blackout(rig.link, sim::Time::seconds(1.0), sim::Time::seconds(2.0))
      .flap(rig.link, sim::Time::seconds(10.0), sim::Time::millis(100),
            sim::Time::millis(400), 3)
      .bandwidth_oscillation(rig.link, sim::Time::seconds(20.0),
                             sim::Time::seconds(1.0), 8e6, 2e6, 5)
      .delay_jitter(rig.link, sim::Time::seconds(30.0),
                    sim::Time::seconds(31.0), sim::Time::millis(250),
                    sim::Time::millis(2));
  // blackout: 2, flap: 6, oscillation: 10, jitter: 4.
  EXPECT_EQ(script.size(), 22u);
}

TEST(FaultScript, RejectsNonsense) {
  Rig rig;
  fault::FaultScript script;
  EXPECT_THROW(script.blackout(rig.link, sim::Time(), sim::Time()),
               sim::SimError);
  EXPECT_THROW(script.flap(rig.link, sim::Time(), sim::Time::millis(1),
                           sim::Time::millis(1), 0),
               sim::SimError);
  EXPECT_THROW(
      script.bandwidth_oscillation(rig.link, sim::Time(),
                                   sim::Time::seconds(1.0), 0.0, 1e6, 1),
      sim::SimError);
  EXPECT_THROW(script.delay_jitter(rig.link, sim::Time::seconds(1.0),
                                   sim::Time::seconds(1.0),
                                   sim::Time::millis(10), sim::Time()),
               sim::SimError);
  EXPECT_THROW(script.bandwidth_at(rig.link, sim::Time(), -5.0),
               sim::SimError);
}

TEST(FaultInjector, AppliesTimedActions) {
  Rig rig;
  fault::FaultScript script;
  script.blackout(rig.link, sim::Time::seconds(1.0), sim::Time::seconds(0.5));
  script.bandwidth_at(rig.link, sim::Time::seconds(2.0), 2e6);
  fault::FaultInjector injector(rig.sim);
  injector.arm(script);

  rig.sim.run_until(sim::Time::seconds(1.1));
  EXPECT_FALSE(rig.link.is_up());
  rig.sim.run_until(sim::Time::seconds(1.6));
  EXPECT_TRUE(rig.link.is_up());
  rig.sim.run_until(sim::Time::seconds(3.0));
  EXPECT_EQ(rig.link.bandwidth_bps(), 2e6);
  EXPECT_EQ(injector.faults_injected(), 3u);
}

TEST(FaultInjector, DelayJitterStaysWithinAmplitudeOfBase) {
  Rig rig;
  const sim::Time base = rig.link.propagation_delay();
  const sim::Time amp = sim::Time::millis(2);
  fault::FaultScript script;
  script.delay_jitter(rig.link, sim::Time(), sim::Time::seconds(1.0),
                      sim::Time::millis(10), amp);
  fault::FaultInjector injector(rig.sim, /*seed=*/99);
  injector.arm(script);

  std::vector<sim::Time> observed;
  for (int i = 0; i < 100; ++i) {
    rig.sim.run_until(sim::Time::millis(10 * i + 5));
    observed.push_back(rig.link.propagation_delay());
  }
  bool moved = false;
  for (sim::Time d : observed) {
    EXPECT_GE(d, base - amp);
    EXPECT_LE(d, base + amp);
    if (d != base) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(InvariantAuditor, CleanLinkPasses) {
  Rig rig;
  fault::InvariantAuditor auditor(rig.sim, {.throw_on_violation = false});
  auditor.watch_link(rig.link, "l");
  net::Packet p;
  p.dst_node = 1;
  for (int i = 0; i < 5; ++i) {
    rig.send(p);
  }
  EXPECT_EQ(auditor.check_now(), 0u);  // mid-flight: queue + in_tx counted
  rig.sim.run();
  EXPECT_EQ(auditor.check_now(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, FlagsQueueBoundViolation) {
  Rig rig;
  fault::AuditorConfig cfg;
  cfg.max_queue_packets = 1;
  cfg.throw_on_violation = false;
  fault::InvariantAuditor auditor(rig.sim, cfg);
  auditor.watch_link(rig.link, "bottleneck");
  net::Packet p;
  p.dst_node = 1;
  for (int i = 0; i < 6; ++i) {
    rig.send(p);
  }
  EXPECT_GE(auditor.check_now(), 1u);
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_NE(auditor.violations()[0].find("bottleneck"), std::string::npos);
}

TEST(InvariantAuditor, ThrowsStructuredErrorWhenConfigured) {
  Rig rig;
  fault::AuditorConfig cfg;
  cfg.max_queue_packets = 0;
  fault::InvariantAuditor auditor(rig.sim, cfg);
  auditor.watch_link(rig.link);
  net::Packet p;
  p.dst_node = 1;
  for (int i = 0; i < 3; ++i) {
    rig.send(p);
  }
  try {
    auditor.check_now();
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kInvariantViolation);
  }
}

TEST(InvariantAuditor, PeriodicAuditRunsUnderTheSimulator) {
  Rig rig;
  fault::InvariantAuditor auditor(rig.sim, {.period = sim::Time::millis(10)});
  auditor.watch_link(rig.link);
  auditor.start();
  rig.sim.run_until(sim::Time::seconds(1.0));
  EXPECT_GE(auditor.audits_performed(), 99u);
  auditor.stop();
}

// A re-armed timer's deadline and its engine event move together, so
// the timer check stays clean through re-arms earlier and later, and
// an idle timer is not checked at all.
TEST(InvariantAuditor, RearmedTimerMatchesItsEngineEvent) {
  Rig rig;
  int fired = 0;
  sim::Timer timer(rig.sim, [&] { ++fired; });
  fault::InvariantAuditor auditor(rig.sim, {.throw_on_violation = false});
  auditor.watch_timer(timer, "rto");
  EXPECT_EQ(auditor.check_now(), 0u);
  timer.schedule_in(sim::Time::millis(30));
  timer.schedule_in(sim::Time::millis(10));
  timer.schedule_in(sim::Time::millis(50));
  EXPECT_EQ(timer.engine_time(), sim::Time::millis(50));
  EXPECT_EQ(auditor.check_now(), 0u);
  rig.sim.run_until(sim::Time::millis(20));
  timer.schedule_at(sim::Time::millis(25));
  EXPECT_EQ(auditor.check_now(), 0u);
  rig.sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(auditor.check_now(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
}

// Dumbbell::audit checks every link and every TCP sender's window, RTO
// and retransmit timer mid-run without scheduling an event: the
// pending set and the trace digest are the same before and after.
TEST(DumbbellAudit, ChecksTcpSendersWithoutSchedulingAnEvent) {
  sim::Simulator sim;
  scenario::Dumbbell net(sim, scenario::DumbbellConfig{});
  net.add_flow(scenario::FlowSpec::tcp());
  net.add_flow(scenario::FlowSpec::sqrt(2.0));
  net.add_flow(scenario::FlowSpec::tfrc(6));
  net.add_reverse_traffic();
  net.start_flows();
  net.finalize();
  sim.run_until(sim::Time::seconds(3.0));
  const std::size_t pending = sim.pending_events();
  const std::uint64_t digest = sim.trace_digest();
  EXPECT_NO_THROW(net.audit());
  EXPECT_EQ(sim.pending_events(), pending);
  EXPECT_EQ(sim.trace_digest(), digest);
  sim.run_until(sim::Time::seconds(4.0));
  EXPECT_NO_THROW(net.audit());
}

// The same audit watches the rate-based senders' timers (RAP's send,
// increase and timeout; TFRC's send and no-feedback) and the TFRC
// sink's feedback timer, again without scheduling an event. No TCP
// flow runs here, so these timers are the only ones the audit watches.
TEST(DumbbellAudit, ChecksRateBasedTimersWithoutSchedulingAnEvent) {
  sim::Simulator sim;
  scenario::Dumbbell net(sim, scenario::DumbbellConfig{});
  net.add_flow(scenario::FlowSpec::rap(2.0));
  net.add_flow(scenario::FlowSpec::tfrc(6));
  net.add_flow(scenario::FlowSpec::tfrc(256, /*conservative=*/true));
  net.start_flows();
  net.finalize();
  for (const double t : {0.25, 3.0, 4.0}) {
    sim.run_until(sim::Time::seconds(t));
    const std::size_t pending = sim.pending_events();
    const std::uint64_t digest = sim.trace_digest();
    EXPECT_NO_THROW(net.audit()) << "at t=" << t;
    EXPECT_EQ(sim.pending_events(), pending);
    EXPECT_EQ(sim.trace_digest(), digest);
  }
}

// -- acceptance scenario -------------------------------------------

struct BlackoutRun {
  net::LinkStats stats;
  std::uint64_t audits = 0;
  std::size_t violations = 0;
  std::int64_t tcp_bytes = 0;
  std::int64_t tfrc_bytes = 0;
};

BlackoutRun run_blackout_dumbbell(std::uint64_t seed) {
  sim::Simulator sim;
  scenario::DumbbellConfig cfg;
  cfg.seed = seed;
  scenario::Dumbbell net(sim, cfg);

  auto& tcp = net.add_flow(scenario::FlowSpec::tcp());
  auto& tfrc = net.add_flow(scenario::FlowSpec::tfrc(6));
  net.add_reverse_traffic();

  // Gilbert-Elliott bursty loss on the bottleneck wire.
  fault::ImpairmentConfig imp;
  imp.loss = fault::GilbertElliottConfig{.p_good_to_bad = 0.002,
                                         .p_bad_to_good = 0.2,
                                         .loss_good = 0.0,
                                         .loss_bad = 0.3};
  fault::WireImpairment wire(imp, sim::Rng(seed));
  net.bottleneck().set_wire_model(&wire);

  // A 2 s blackout mid-run.
  fault::FaultScript script;
  script.blackout(net.bottleneck(), sim::Time::seconds(8.0),
                  sim::Time::seconds(2.0));
  fault::FaultInjector injector(sim, seed);
  injector.arm(script);

  fault::InvariantAuditor auditor(sim, {.period = sim::Time::millis(50),
                                        .throw_on_violation = false});
  auditor.watch_topology(net.topology());
  auditor.start();

  net.start_flows();
  net.finalize();
  sim.run_until(sim::Time::seconds(20.0));

  BlackoutRun out;
  out.stats = net.bottleneck().stats();
  out.audits = auditor.audits_performed();
  out.violations = auditor.violations().size();
  out.tcp_bytes = tcp.sink->bytes_received();
  out.tfrc_bytes = tfrc.sink->bytes_received();
  return out;
}

TEST(FaultAcceptance, BlackoutPlusGilbertElliottRunsCleanUnderAudit) {
  const BlackoutRun run = run_blackout_dumbbell(1);
  EXPECT_EQ(run.violations, 0u);
  EXPECT_GE(run.audits, 300u);
  // The blackout and the bursty wire both actually fired.
  EXPECT_GT(run.stats.drops_link_down, 0u);
  EXPECT_GT(run.stats.drops_impairment, 0u);
  // Traffic flowed before and after.
  EXPECT_GT(run.tcp_bytes, 0);
  EXPECT_GT(run.tfrc_bytes, 0);
}

TEST(FaultAcceptance, SameSeedReproducesByteIdenticalLinkStats) {
  const BlackoutRun a = run_blackout_dumbbell(7);
  const BlackoutRun b = run_blackout_dumbbell(7);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.tcp_bytes, b.tcp_bytes);
  EXPECT_EQ(a.tfrc_bytes, b.tfrc_bytes);

  const BlackoutRun c = run_blackout_dumbbell(8);
  EXPECT_FALSE(a.stats == c.stats);
}

// The oscillation experiment driven by real link-bandwidth faults
// (instead of CBR emulation) completes and produces sane utilization.
TEST(FaultAcceptance, LinkBandwidthOscillationModeWorks) {
  scenario::OscillationConfig cfg;
  cfg.mode = scenario::OscillationMode::kLinkBandwidth;
  cfg.num_flows = 4;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.measure = sim::Time::seconds(20.0);
  cfg.on_off_length = sim::Time::seconds(0.5);
  const auto out = scenario::run_oscillation(cfg);
  EXPECT_GT(out.aggregate_fraction, 0.2);
  EXPECT_LE(out.aggregate_fraction, 1.5);
}

}  // namespace
}  // namespace slowcc
