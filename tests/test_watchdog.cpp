// Watchdog: aborting livelocked and runaway simulations with a
// structured, diagnosable error.
#include <gtest/gtest.h>

#include "fault/watchdog.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::fault {
namespace {

// An event that reschedules itself at the current time: simulated time
// never advances, so no sim-time timer could ever interrupt it.
void livelock(sim::Simulator& sim) {
  sim.schedule_at(sim.now(), [&sim] { livelock(sim); });
}

TEST(Watchdog, HaltsLivelockedSimulationOnEventBudget) {
  sim::Simulator sim;
  Watchdog dog(sim, {.max_events = 10'000, .check_every_events = 100});
  livelock(sim);
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBudgetExceeded);
    EXPECT_NE(e.detail().find("event budget"), std::string::npos);
    EXPECT_NE(e.detail().find("pending events"), std::string::npos);
  }
  EXPECT_TRUE(dog.triggered());
  EXPECT_GE(sim.events_executed(), 10'000u);
  EXPECT_LT(sim.events_executed(), 10'200u);  // caught promptly
}

TEST(Watchdog, HaltsOnWallClockBudget) {
  sim::Simulator sim;
  Watchdog dog(sim, {.max_wall_seconds = 0.02, .check_every_events = 64});
  livelock(sim);
  EXPECT_THROW(sim.run(), sim::SimError);
  EXPECT_TRUE(dog.triggered());
}

TEST(Watchdog, QuietWhenBudgetsAreRespected) {
  sim::Simulator sim;
  Watchdog dog(sim, {.max_events = 1'000'000, .check_every_events = 16});
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(sim::Time::millis(i), [] {});
  }
  sim.run();
  EXPECT_FALSE(dog.triggered());
  EXPECT_GE(dog.checks_performed(), 6u);
}

TEST(Watchdog, DumpIncludesWatchedLinkStats) {
  sim::Simulator sim;
  net::Node a{0}, b{1};
  net::Link link(sim, a, b, 8e6, sim::Time::millis(1),
                 std::make_unique<net::DropTailQueue>(4));
  Watchdog dog(sim, {.max_events = 100});
  dog.watch_link(link, "bottleneck");
  a.set_route(1, link);
  net::Packet p;
  p.dst_node = 1;
  net::PacketPool& pool = net::PacketPool::of(sim);
  a.deliver(pool.acquire(p).handle, pool);
  sim.run();
  const std::string dump = dog.diagnostic_dump();
  EXPECT_NE(dump.find("bottleneck"), std::string::npos);
  EXPECT_NE(dump.find("arrivals=1"), std::string::npos);
}

TEST(Watchdog, RejectsUnboundedOrDoubleInstallation) {
  sim::Simulator sim;
  EXPECT_THROW(Watchdog(sim, {}), sim::SimError);  // no budget at all
  Watchdog first(sim, {.max_events = 100});
  // Second watchdog cannot steal the hook slot.
  EXPECT_THROW(Watchdog(sim, {.max_events = 100}), sim::SimError);
}

TEST(Watchdog, DestructorFreesHookSlot) {
  sim::Simulator sim;
  { Watchdog dog(sim, {.max_events = 100}); }
  Watchdog again(sim, {.max_events = 100});
  EXPECT_FALSE(again.triggered());
}

// The orchestration layer reclassifies wall-clock watchdog fires as
// trial deadline violations (vs the default budget-exceeded).
TEST(Watchdog, ErrorCodeIsConfigurable) {
  sim::Simulator sim;
  Watchdog dog(sim, {.max_events = 1'000,
                     .check_every_events = 64,
                     .error_code = sim::SimErrc::kDeadlineExceeded});
  livelock(sim);
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kDeadlineExceeded);
  }
  EXPECT_TRUE(dog.triggered());
}

}  // namespace
}  // namespace slowcc::fault
