#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "engine_diff.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {
namespace {

// Property test: randomized 10k-op schedule/cancel/reschedule/pop/peek
// scripts, EventQueue and the reference scheduler must agree on every
// observable. On failure the report embeds the delta-debugged minimal
// script, so the assertion message is directly actionable.
TEST(EngineDiff, RandomizedScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x5107cc5eedULL;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_engines(random_script(seed, 10000));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// Short scripts shake out horizon-edge bugs that long ones average
// away (first advance, first overflow jump, pop-through-empty).
TEST(EngineDiff, ShortScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x51075407ULL;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_engines(random_script(seed, 40));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

TEST(EngineDiff, MassiveTieBurstAgrees) {
  DiffScript script;
  for (int i = 0; i < 2000; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kSchedule, 777'000, 0});
  }
  for (std::size_t i = 0; i < 600; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kCancel, 0, i * 3});
  }
  for (int i = 0; i < 900; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// INT64_MAX timestamps next to near events: the (at, seq) compare must
// order the extremes without overflow. Kept from the timer-wheel era,
// when these inputs hit its overflow-heap jump.
TEST(EngineDiff, FarFutureSentinelsAgree) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, 5, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax - 1, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, 1'000'000'000'000, 0});
  for (int i = 0; i < 6; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
    script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Events at INT64_MAX scheduled after one at INT64_MAX has fired must
// still fire in seq order, and one just below them must fire first.
// Kept from the timer-wheel era: these inputs once saturated its
// dispatch horizon, whose unclamped end (INT64_MAX + 1) was UB.
TEST(EngineDiff, ScheduleAtMaxAfterHorizonSaturates) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // saturates the horizon
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax - 1, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  for (int i = 0; i < 3; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
    script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// An event scheduled after a pop, later than a pending one, must not
// overtake it. Kept from the timer-wheel era: these times straddle a
// 2^20 ns boundary where the wheel once drained a fine slot before a
// coarse slot of the same start and served events out of order.
TEST(EngineDiff, EqualStartCascadeBeatsDrainAgrees) {
  constexpr std::int64_t kL1 = std::int64_t{1} << 20;  // old L1 slot span
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 - 100, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 + 10, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // advances the horizon
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 + 50, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // must be kL1 + 10
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

TEST(EngineDiff, RunScriptIsDeterministicPerEngine) {
  const DiffScript script = random_script(0xd5e7e2ULL, 2000);
  EXPECT_EQ(run_script<sim::EventQueue>(script),
            run_script<sim::EventQueue>(script));
  EXPECT_EQ(run_script<ReferenceScheduler>(script),
            run_script<ReferenceScheduler>(script));
}

// Re-entrant differential: a self-rescheduling workload where every
// callback draws from a shared Rng and schedules from inside the drain
// loop, so any divergence in execution order immediately snowballs
// into a different (at, seq) stream.
template <typename Engine>
std::vector<sim::PoppedEvent> run_respawn(std::uint64_t seed, int budget) {
  Engine q;
  sim::Rng rng(seed);
  sim::Time now;
  std::function<void()> spawn = [&] {
    if (budget <= 0) return;
    --budget;
    const auto delay = sim::Time::nanos(
        static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{1} << 34)));
    q.schedule(now + delay, [&] {
      if (rng.chance(0.7)) spawn();
      if (rng.chance(0.5)) spawn();
    });
  };
  for (int i = 0; i < 100; ++i) spawn();
  std::vector<sim::PoppedEvent> fired;
  while (q.size() > 0) {
    sim::PoppedEvent ev;
    auto cb = q.pop(&ev);
    now = ev.at;
    fired.push_back(ev);
    cb();
  }
  return fired;
}

TEST(EngineDiff, SimulatorTraceDigestsMatch) {
  const auto reference = run_respawn<ReferenceScheduler>(0xd16e57ULL, 30000);
  const auto queue = run_respawn<sim::EventQueue>(0xd16e57ULL, 30000);
  ASSERT_GT(reference.size(), 10000u);  // workload actually ran
  ASSERT_EQ(reference.size(), queue.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].at == queue[i].at &&
                reference[i].seq == queue[i].seq)
        << "first divergent event #" << i << ": reference "
        << reference[i].at.as_nanos() << "/" << reference[i].seq
        << ", EventQueue " << queue[i].at.as_nanos() << "/" << queue[i].seq;
  }
}

}  // namespace
}  // namespace slowcc::test
