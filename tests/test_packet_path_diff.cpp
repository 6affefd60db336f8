#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "packet_path_diff.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {
namespace {

// ====================================================================
// Property tests: randomized send/run/flap/retime/filter scripts, the
// pooled (batched drain chain) and scalar (one event per departure)
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
// Scenario-level differential: the one-link rig above never has more
// than two chains armed. A 64-flow dumbbell keeps many access links
// busy at once, so the pooled path's chain heap works at depth while
// the scalar path arms no chain at all; equal digests and event counts
// prove the heap fires in exact (at, seq) order under load.

struct DumbbellRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::size_t max_armed_chains = 0;
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
  EXPECT_GE(pooled.max_armed_chains, 64u) << "the chain heap never got deep";
}

}  // namespace
}  // namespace slowcc::test
