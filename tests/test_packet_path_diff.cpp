#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "packet_path_diff.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/lane.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {
namespace {

// ====================================================================
// Property tests: randomized send/run/flap/retime/filter scripts, the
// pooled (shared fixed-delay lanes) and scalar (one event per departure)
// packet paths must agree on every observable — time, event count,
// trace digest, link counters, queue occupancy, and each delivered
// packet. On failure the report embeds the ddmin-shrunken minimal
// script, so the assertion message is directly actionable.

TEST(PacketPathDiff, RandomizedScriptsAgreeOnDropTail) {
  constexpr std::uint64_t kBaseSeed = 0x9ac4e7aa7bULL;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_paths(random_path_script(seed, 400));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// RED consumes RNG draws during admission; the paths only agree if the
// pooled queue makes exactly the same admit() calls in the same order
// (early drops land mid-batch under saturation).
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
// Directed regressions: the batch-boundary cases named in ISSUE 10.

// A burst that saturates the link, then set_down lands mid-drain: the
// chain must disarm without firing the queued departures, the
// in-flight packet is dropped as kLinkDown, and the queue flushes —
// identically to the scalar cancel.
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
// from scratch (the scalar path schedules a fresh tx event).
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
// saturating burst must consume identical RNG draws on both paths —
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
// pooled path re-mints the chain seq exactly where the scalar path
// cancels + reschedules, so digests stay identical.
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
// log twice on the same path (no hidden global state between runs).
TEST(PacketPathDiff, HarnessIsDeterministicPerPath) {
  const PathScript script = random_path_script(0x9acd37e7ULL, 200);
  for (const net::PacketPath path :
       {net::PacketPath::kScalar, net::PacketPath::kPooled}) {
    const std::string first = run_path_script(path, script);
    const std::string second = run_path_script(path, script);
    EXPECT_EQ(first, second);
  }
}

// ====================================================================
// Shared lanes: links with one bandwidth and one delay post into the
// same transmit and delivery lanes, so a fault on one link must take
// its own entry out of the middle of a lane the others keep using.
// Three links from a to b carry bursts; `fault` strikes mid-burst; the
// log renders deliveries, the event stream, every link's counters and
// the pending times, and the two paths must agree on all of it.

using LaneFault = std::function<void(std::vector<net::Link*>&)>;

std::string run_shared_lane_rig(net::PacketPath path, const LaneFault& fault) {
  net::set_thread_packet_path(path);
  std::ostringstream log;
  {
    sim::Simulator sim;
    net::Node a{0, "a"};
    net::Node b{1, "b"};
    detail::CountingSink sink;
    sink.sim = &sim;
    sink.log = &log;
    b.attach(1, sink);
    std::vector<std::unique_ptr<net::Link>> owned;
    std::vector<net::Link*> links;
    for (int i = 0; i < 3; ++i) {
      owned.push_back(std::make_unique<net::Link>(
          sim, a, b, 8e6, sim::Time::micros(2500),
          std::make_unique<net::DropTailQueue>(8)));
      links.push_back(owned.back().get());
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
          links[static_cast<std::size_t>(i)]->send(std::move(p));
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
      for (const net::Link* link : links) {
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
  net::clear_thread_packet_path();
  return log.str();
}

void expect_paths_agree_on_shared_lanes(const LaneFault& fault) {
  const std::string scalar =
      run_shared_lane_rig(net::PacketPath::kScalar, fault);
  const std::string pooled =
      run_shared_lane_rig(net::PacketPath::kPooled, fault);
  EXPECT_EQ(pooled, scalar);
}

// The middle link's in-flight packet leaves the transmit lane the other
// two still share and finishes as an engine event; then the rate goes
// back, which moves its next packets into the shared lane again.
TEST(PacketPathDiff, SetBandwidthOnASharedTransmitLane) {
  expect_paths_agree_on_shared_lanes([](std::vector<net::Link*>& links) {
    links[1]->set_bandwidth(2e6);
    links[1]->set_bandwidth(8e6);
    links[0]->set_bandwidth(4e6);
  });
}

// The middle link's transmit ticket sits between the other two links'
// tickets in the shared lane when the link goes down.
TEST(PacketPathDiff, SetDownWhileTheTicketSitsMidLane) {
  expect_paths_agree_on_shared_lanes([](std::vector<net::Link*>& links) {
    links[1]->set_down();
    links[2]->set_down();
    links[2]->set_up();
  });
}

// Packets already propagating keep the delay they left with (and their
// lane); later departures move to the new delay's lane, shorter for one
// link and longer for another, so the lanes' fire times interleave.
TEST(PacketPathDiff, SetPropagationDelayWhilePacketsPropagateSwitchesLanes) {
  expect_paths_agree_on_shared_lanes([](std::vector<net::Link*>& links) {
    links[0]->set_propagation_delay(sim::Time::micros(300));
    links[2]->set_propagation_delay(sim::Time::micros(4000));
  });
}

// ====================================================================
// Scenario-level differential: the rigs above share lanes between at
// most three links. A 64-flow dumbbell keeps many access links busy at
// once, so the pooled path's lanes each carry dozens of links' entries
// while the scalar path arms no chain at all; equal digests and event
// counts prove the lanes fire in exact (at, seq) order under load.

struct DumbbellRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::size_t max_armed_chains = 0;
  std::size_t most_lane_live = 0;
};

DumbbellRun run_many_flow_dumbbell(net::PacketPath path) {
  net::set_thread_packet_path(path);
  DumbbellRun out;
  {
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
      out.max_armed_chains = std::max(out.max_armed_chains, sim.armed_chains());
      out.most_lane_live =
          std::max(out.most_lane_live, sim.lane_stats().most_live);
    });
    sim.run_until(sim::Time::seconds(1.5));
    out.digest = sim.trace_digest();
    out.events = sim.events_executed();
  }
  net::clear_thread_packet_path();
  return out;
}

TEST(PacketPathDiff, ManyFlowDumbbellAgreesAcrossPaths) {
  const DumbbellRun scalar = run_many_flow_dumbbell(net::PacketPath::kScalar);
  const DumbbellRun pooled = run_many_flow_dumbbell(net::PacketPath::kPooled);
  EXPECT_EQ(pooled.digest, scalar.digest);
  EXPECT_EQ(pooled.events, scalar.events);
  EXPECT_EQ(scalar.max_armed_chains, 0u);
  EXPECT_GE(pooled.most_lane_live, 64u) << "no lane was ever shared under load";
}

// The Watchdog's "next at" dump reads pending_event_times: it must list
// the true earliest pending events whichever path carries them, not
// only the head of each FIFO the pooled path batches.
std::vector<std::int64_t> many_flow_pending_ns(net::PacketPath path) {
  net::set_thread_packet_path(path);
  std::vector<std::int64_t> times;
  {
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
    for (const sim::Time t : sim.pending_event_times(32)) {
      times.push_back(t.as_nanos());
    }
  }
  net::clear_thread_packet_path();
  return times;
}

TEST(PacketPathDiff, PendingEventTimesAgreeAcrossPaths) {
  const std::vector<std::int64_t> scalar =
      many_flow_pending_ns(net::PacketPath::kScalar);
  const std::vector<std::int64_t> pooled =
      many_flow_pending_ns(net::PacketPath::kPooled);
  ASSERT_EQ(scalar.size(), 32u);
  EXPECT_EQ(pooled, scalar);
}

}  // namespace
}  // namespace slowcc::test
