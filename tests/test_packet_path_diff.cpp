#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "packet_path_diff.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/lane.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {
namespace {

// ====================================================================
// Property tests: on randomized send/run/flap/retime/delay/filter/wire
// scripts, net::Link (shared fixed-delay lanes) and ReferenceLink (one
// engine event per transition) must agree on every observable — time,
// event count, trace digest, link counters, queue occupancy, and each
// delivered packet. On failure the report embeds the ddmin-shrunken
// minimal script, so the assertion message is directly actionable.

TEST(PacketPathDiff, RandomizedScriptsAgreeOnDropTail) {
  constexpr std::uint64_t kBaseSeed = 0x9ac4e7aa7bULL;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_paths(random_path_script(seed, 400));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// RED consumes RNG draws during admission; the links only agree if the
// handle API makes exactly the same admit() calls in the same order as
// the value API (early drops land mid-batch under saturation).
TEST(PacketPathDiff, RandomizedScriptsAgreeOnRed) {
  constexpr std::uint64_t kBaseSeed = 0x9ac45edULL;
  PathRigConfig cfg;
  cfg.red = true;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report =
        diff_paths(random_path_script(seed, 400), cfg);
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// Short scripts shake out arming-edge bugs that long ones average away
// (first transmission, chain armed exactly once, drain of a 1-deep
// queue).
TEST(PacketPathDiff, ShortScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x9ac45407ULL;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_paths(random_path_script(seed, 40));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// ====================================================================
// Directed regressions: the batch-boundary cases.

// A burst that saturates the link, then set_down lands mid-drain: the
// chain must disarm without firing the queued departures, the
// in-flight packet is dropped as kLinkDown, and the queue flushes —
// identically to the reference link's cancel.
TEST(PacketPathDiff, SetDownInterruptsDrain) {
  PathScript script;
  for (int i = 0; i < 6; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  // 1.5 serializations in: packet 0 delivered, packet 1 on the wire.
  script.push_back({PathOp::Kind::kRun, 1'500'000});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kRun, 5'000'000});
  script.push_back({PathOp::Kind::kUp, 0});
  for (int i = 0; i < 3; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Flap the link while the queue still holds a backlog and immediately
// resume sending: the first post-repair send must re-arm the chain
// from scratch (the reference link schedules a fresh tx event).
TEST(PacketPathDiff, FlapThenImmediateResend) {
  PathScript script;
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 800});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kUp, 0});
  script.push_back({PathOp::Kind::kSend, 800});
  script.push_back({PathOp::Kind::kRun, 10'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// RED early drop mid-batch: an aggressive RED config dropping under a
// saturating burst must consume identical RNG draws on both links —
// the drop decisions (and therefore which seqs are delivered) match.
TEST(PacketPathDiff, RedDropsMidBatch) {
  PathRigConfig cfg;
  cfg.red = true;
  PathScript script;
  for (int i = 0; i < 12; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 4'000'000});
  for (int i = 0; i < 12; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script, cfg);
  EXPECT_TRUE(report.empty()) << report;
}

// The last packet of a batch is canceled: set_down exactly when only
// the final queued packet remains; its pending departure must never
// fire and its handle must be released (the harness's
// pool_live_after_drain line catches a leak).
TEST(PacketPathDiff, LastPacketOfBatchCanceled) {
  PathScript script;
  script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kSend, 1000});
  // Both serializations done for packet 0; packet 1 is the whole batch
  // tail when the link dies.
  script.push_back({PathOp::Kind::kRun, 1'200'000});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kRun, 3'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// set_bandwidth mid-transmission re-times the in-flight packet: the
// link revokes its lane ticket and schedules the remainder exactly
// where the reference link cancels + reschedules, so digests stay
// identical.
TEST(PacketPathDiff, RetimeMidTransmission) {
  PathScript script;
  for (int i = 0; i < 5; ++i) script.push_back({PathOp::Kind::kSend, 1500});
  script.push_back({PathOp::Kind::kRun, 700'000});  // mid-serialization
  script.push_back({PathOp::Kind::kBandwidth, 2'000'000});
  script.push_back({PathOp::Kind::kRun, 2'000'000});
  script.push_back({PathOp::Kind::kBandwidth, 16'000'000});
  script.push_back({PathOp::Kind::kRun, 20'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Forced-drop filter toggled under saturation: filtered arrivals must
// not perturb the drain cadence of packets already queued.
TEST(PacketPathDiff, ForcedDropUnderSaturation) {
  PathScript script;
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kFilter, 0});
  for (int i = 0; i < 6; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kFilter, 0});
  script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Every engine fallback of the wire model under saturation, across a
// flap and a re-time: losses on the wire, extra delays that reorder
// against later departures, duplicates with and without their own
// delay, and the model cleared while reordered copies still propagate.
TEST(PacketPathDiff, WireModelFallbacksAgree) {
  PathScript script;
  script.push_back({PathOp::Kind::kWire, 0});
  for (int i = 0; i < 8; ++i) {
    script.push_back({PathOp::Kind::kSend, i % 2 == 0 ? 1000 : 300});
  }
  script.push_back({PathOp::Kind::kRun, 2'500'000});
  script.push_back({PathOp::Kind::kBandwidth, 4'000'000});
  script.push_back({PathOp::Kind::kRun, 1'000'000});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kUp, 0});
  for (int i = 0; i < 6; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  // All six depart with the model on; seq 10 is delayed and duplicated.
  script.push_back({PathOp::Kind::kRun, 20'000'000});
  script.push_back({PathOp::Kind::kWire, 0});
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 500});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
  // The script must actually reach every verdict, or it proves nothing.
  const std::string log = run_path_script<net::Link>(script);
  for (const char* counter : {" imp=0 ", " dup=0 ", " reo=0 "}) {
    EXPECT_EQ(log.find(counter), std::string::npos) << counter << "\n" << log;
  }
}

// ====================================================================
// Harness self-checks.

// The shrinker only ever returns scripts that still disagree, and the
// sanity path (agreeing script) reports empty without shrinking.
TEST(PacketPathDiff, AgreementReportsEmpty) {
  PathScript script;
  script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 5'000'000});
  EXPECT_TRUE(diff_paths(script).empty());
}

// Determinism of the harness itself: the same script renders the same
// log twice on the same link type (no hidden global state between
// runs).
TEST(PacketPathDiff, HarnessIsDeterministicPerPath) {
  const PathScript script = random_path_script(0x9acd37e7ULL, 200);
  EXPECT_EQ(run_path_script<net::Link>(script),
            run_path_script<net::Link>(script));
  EXPECT_EQ(run_path_script<ReferenceLink>(script),
            run_path_script<ReferenceLink>(script));
}

// The oracle keeps the ~Link contract too: a reference link destroyed
// with a transmission, wire-delayed deliveries and duplicates pending
// cancels them all, and the Simulator runs on without them.
TEST(PacketPathDiff, ReferenceLinkDiesWithoutFiringIntoTheDeadOne) {
  sim::Simulator sim;
  net::Node a{0, "a"};
  net::Node b{1, "b"};
  std::ostringstream log;
  detail::CountingSink sink;
  sink.sim = &sim;
  sink.log = &log;
  b.attach(1, sink);
  SeqKeyedWire wire;
  auto link = std::make_unique<ReferenceLink>(
      sim, a, b, 8e6, sim::Time::millis(10),
      std::make_unique<net::DropTailQueue>(8));
  link->set_wire_model(&wire);
  // Seqs 2, 3 and 4 get an extra delay, a duplicate and both; seq 5
  // is still in the transmitter when the link dies.
  for (std::int64_t seq = 2; seq <= 5; ++seq) {
    net::Packet p;
    p.dst_node = 1;
    p.dst_port = 1;
    p.seq = seq;
    p.size_bytes = 1000;
    link->send(p);
  }
  sim.run_until(sim::Time::millis(3) + sim::Time::micros(500));
  ASSERT_TRUE(link->transmitting());
  ASSERT_EQ(sim.pending_events(), 6u);
  link.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(net::PacketPool::of(sim).live(), 0u);
  sim.run();
  EXPECT_EQ(log.str(), "");
}

// ====================================================================
// Shared lanes: links with one bandwidth and one delay post into the
// same transmit and delivery lanes, so a fault on one link must take
// its own entry out of the middle of a lane the others keep using.
// Three links, each from its own node to b, carry bursts; `fault`
// strikes mid-burst; the log renders deliveries, the event stream,
// every link's counters and the pending times, and three net::Links
// must agree on all of it with three ReferenceLinks.

template <typename LinkT, typename Fault>
std::string run_shared_lane_rig(const Fault& fault) {
  std::ostringstream log;
  {
    sim::Simulator sim;
    net::Node b{1, "b"};
    detail::CountingSink sink;
    sink.sim = &sim;
    sink.log = &log;
    b.attach(1, sink);
    std::vector<std::unique_ptr<net::Node>> sources;
    std::vector<std::unique_ptr<LinkT>> owned;
    std::vector<LinkT*> links;
    for (int i = 0; i < 3; ++i) {
      sources.push_back(std::make_unique<net::Node>(2 + i));
      owned.push_back(std::make_unique<LinkT>(
          sim, *sources.back(), b, 8e6, sim::Time::micros(2500),
          std::make_unique<net::DropTailQueue>(8)));
      links.push_back(owned.back().get());
      connect(*links.back());
    }
    auto send_burst = [&](int round) {
      for (int i = 0; i < 3; ++i) {
        for (int k = 0; k < 4; ++k) {
          net::Packet p;
          p.src_node = 0;
          p.dst_node = 1;
          p.dst_port = 1;
          p.seq = round * 1000 + i * 100 + k;
          p.size_bytes = 1000;
          offer(*links[static_cast<std::size_t>(i)], sim, p);
        }
      }
    };
    auto render = [&](const char* what) {
      log << what << " t=" << sim.now().as_nanos()
          << " ev=" << sim.events_executed() << " dig=" << sim.trace_digest()
          << " pending=" << sim.pending_events() << " at=";
      for (const sim::Time t : sim.pending_event_times(64)) {
        log << t.as_nanos() << ",";
      }
      for (const LinkT* link : links) {
        const net::LinkStats& s = link->stats();
        log << " [dep=" << s.departures << " drop=" << s.drops_total()
            << " q=" << link->queue().length_packets() << "]";
      }
      log << "\n";
    };
    send_burst(0);
    // 1.5 serializations in: each link's first packet is on the wire,
    // its second mid-transmission.
    sim.run_until(sim::Time::micros(1500));
    render("before");
    fault(links);
    render("after");
    sim.run_until(sim::Time::micros(3200));
    send_burst(1);
    render("resent");
    sim.run();
    render("final");
    log << "pool_live=" << net::PacketPool::of(sim).live() << "\n";
  }
  return log.str();
}

// `fault` takes the rig's links as `std::vector<LinkT*>&` for either
// link type, so it is written as a generic lambda.
template <typename Fault>
void expect_links_agree_on_shared_lanes(const Fault& fault) {
  EXPECT_EQ(run_shared_lane_rig<net::Link>(fault),
            run_shared_lane_rig<ReferenceLink>(fault));
}

// The middle link's in-flight packet leaves the transmit lane the other
// two still share and finishes from the lane of its remainder's
// duration, held for that one entry; then the rate goes back, which
// moves its next packets into the shared lane again.
TEST(PacketPathDiff, SetBandwidthOnASharedTransmitLane) {
  expect_links_agree_on_shared_lanes([](auto& links) {
    links[1]->set_bandwidth(2e6);
    links[1]->set_bandwidth(8e6);
    links[0]->set_bandwidth(4e6);
  });
}

// The middle link's transmit ticket sits between the other two links'
// tickets in the shared lane when the link goes down.
TEST(PacketPathDiff, SetDownWhileTheTicketSitsMidLane) {
  expect_links_agree_on_shared_lanes([](auto& links) {
    links[1]->set_down();
    links[2]->set_down();
    links[2]->set_up();
  });
}

// Packets already propagating keep the delay they left with (and their
// lane); later departures move to the new delay's lane, shorter for one
// link and longer for another, so the lanes' fire times interleave.
TEST(PacketPathDiff, SetPropagationDelayWhilePacketsPropagateSwitchesLanes) {
  expect_links_agree_on_shared_lanes([](auto& links) {
    links[0]->set_propagation_delay(sim::Time::micros(300));
    links[2]->set_propagation_delay(sim::Time::micros(4000));
  });
}

// ====================================================================
// Scenario-level pins: the rigs above share lanes between at most
// three links. A 64-flow dumbbell keeps many access links busy at once,
// so each lane carries dozens of links' entries. scenario::Dumbbell
// builds its own net::Links, so no reference link can be swapped in:
// these tests pin the digest, event count and pending times that the
// by-value path (one engine event per departure and delivery) produced
// for the same run, proving the lanes fire in exact (at, seq) order
// under load.

struct DumbbellRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::size_t most_lane_live = 0;
};

DumbbellRun run_many_flow_dumbbell() {
  DumbbellRun out;
  sim::Simulator sim;
  scenario::DumbbellConfig cfg;
  cfg.bottleneck_bps = 100e6;
  cfg.seed = 3;
  scenario::Dumbbell bed(sim, cfg);
  for (int i = 0; i < 64; ++i) bed.add_flow(scenario::FlowSpec::tcp(2.0));
  bed.add_reverse_traffic();
  bed.start_flows();
  bed.finalize();
  // The hook runs outside the event stream, so it cannot move the
  // digest it helps to check.
  sim.set_event_hook(8, [&] {
    out.most_lane_live =
        std::max(out.most_lane_live, sim.lane_stats().most_live);
  });
  sim.run_until(sim::Time::seconds(1.5));
  out.digest = sim.trace_digest();
  out.events = sim.events_executed();
  return out;
}

TEST(PacketPathDiff, ManyFlowDumbbellAgreesAcrossPaths) {
  const DumbbellRun run = run_many_flow_dumbbell();
  EXPECT_EQ(run.digest, 10911702783543799015ULL);
  EXPECT_EQ(run.events, 228814u);
  EXPECT_GE(run.most_lane_live, 64u) << "no lane was ever shared under load";
}

// pending_event_times must list the true earliest pending events, not
// only the head of each lane.
TEST(PacketPathDiff, PendingEventTimesAgreeAcrossPaths) {
  sim::Simulator sim;
  scenario::DumbbellConfig cfg;
  cfg.bottleneck_bps = 100e6;
  cfg.seed = 3;
  scenario::Dumbbell bed(sim, cfg);
  for (int i = 0; i < 64; ++i) bed.add_flow(scenario::FlowSpec::tcp(2.0));
  bed.add_reverse_traffic();
  bed.start_flows();
  bed.finalize();
  sim.run_until(sim::Time::seconds(1.0));
  std::vector<std::int64_t> times;
  for (const sim::Time t : sim.pending_event_times(32)) {
    times.push_back(t.as_nanos());
  }
  const std::vector<std::int64_t> by_value = {
      1000016000, 1000019200, 1000027200, 1000027200, 1000027200, 1000043200,
      1000044800, 1000046400, 1000051200, 1000057600, 1000067200, 1000099200,
      1000107200, 1000107200, 1000129600, 1000137600, 1000147200, 1000182400,
      1000187200, 1000187200, 1000209600, 1000227200, 1000262400, 1000265600,
      1000267200, 1000267200, 1000270400, 1000289600, 1000307200, 1000345600,
      1000347200, 1000348800};
  EXPECT_EQ(times, by_value);
}

}  // namespace
}  // namespace slowcc::test
