#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/error.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace slowcc::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time::millis(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::millis(7));
  EXPECT_EQ(sim.now(), Time::millis(7));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time::millis(10), [&] {
    sim.schedule_in(Time::millis(5), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::millis(15));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(10), [&] { ++fired; });
  sim.schedule_at(Time::millis(30), [&] { ++fired; });
  sim.run_until(Time::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
  sim.run_until(Time::millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(Time::millis(20), [&] { ran = true; });
  sim.run_until(Time::millis(20));
  EXPECT_TRUE(ran);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(Time::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Time::millis(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(Time::millis(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 25u);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule_at(Time::millis(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelThenRunLeavesClockAtDeadline) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule_at(Time::millis(10), [&] { ran = true; });
  sim.cancel(id);
  sim.run_until(Time::millis(20));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Time::millis(20));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RescheduleFromInsideCallbackRunsInSamePass) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::millis(10), [&] {
    order.push_back(1);
    // Same-time event scheduled from inside a callback must still run
    // in this run_until pass (FIFO among equal times).
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
    sim.schedule_in(Time::millis(5), [&] { order.push_back(3); });
  });
  sim.run_until(Time::millis(15));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::millis(15));
}

TEST(Simulator, EventScheduledAtDeadlineFromCallbackAtDeadlineRuns) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(20), [&] {
    ++fired;
    sim.schedule_at(Time::millis(20), [&] { ++fired; });
  });
  sim.run_until(Time::millis(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelInsideCallbackOfLaterEvent) {
  Simulator sim;
  bool ran = false;
  EventId later{};
  sim.schedule_at(Time::millis(1), [&] { sim.cancel(later); });
  later = sim.schedule_at(Time::millis(2), [&] { ran = true; });
  sim.run_until(Time::millis(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Time::millis(10));
}

TEST(Simulator, RunUntilSameDeadlineTwiceIsIdempotent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(10), [&] { ++fired; });
  sim.run_until(Time::millis(10));
  sim.run_until(Time::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(10));
}

TEST(Simulator, SchedulingInThePastThrowsStructuredError) {
  Simulator sim;
  sim.schedule_at(Time::millis(10), [] {});
  sim.run();
  try {
    sim.schedule_at(Time::millis(5), [] {});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
    EXPECT_EQ(e.component(), "Simulator");
  }
}

TEST(Simulator, EventHookFiresEveryNEvents) {
  Simulator sim;
  int hooks = 0;
  sim.set_event_hook(10, [&] { ++hooks; });
  for (int i = 0; i < 35; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(hooks, 3);
  sim.clear_event_hook();
  sim.set_event_hook(1, [&] { ++hooks; });  // slot is free again
}

TEST(Simulator, EventHookInstalledMidRunFiresOnAbsoluteMultiples) {
  // The hook period counts executed events from the simulation's start,
  // not from installation: installed after 7 events with every=5, it
  // fires after events 10, 15 and 20.
  Simulator sim;
  std::vector<std::uint64_t> fired_at;
  for (int i = 0; i < 22; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run_until(Time::millis(6));
  ASSERT_EQ(sim.events_executed(), 7u);
  sim.set_event_hook(5, [&] { fired_at.push_back(sim.events_executed()); });
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{10, 15, 20}));
  // Re-installed on an exact multiple, the next firing is a full period
  // later.
  sim.clear_event_hook();
  fired_at.clear();
  for (int i = 0; i < 12; ++i) sim.schedule_at(Time::seconds(1 + i), [] {});
  sim.run_until(Time::seconds(3));  // events 23..25
  ASSERT_EQ(sim.events_executed(), 25u);
  sim.set_event_hook(5, [&] { fired_at.push_back(sim.events_executed()); });
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{30}));
  // Installed from inside a callback, that event's own check still
  // runs: a hook installed during event 35 fires right after it.
  sim.clear_event_hook();
  fired_at.clear();
  sim.schedule_at(Time::seconds(20), [&] {
    sim.set_event_hook(5, [&] { fired_at.push_back(sim.events_executed()); });
  });
  for (int i = 0; i < 6; ++i) sim.schedule_at(Time::seconds(20 + i), [] {});
  sim.run();  // events 35..41; the installing event is 35
  EXPECT_EQ(sim.events_executed(), 41u);
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{35, 40}));
}

TEST(Simulator, EventHookSlotIsExclusive) {
  Simulator sim;
  sim.set_event_hook(10, [] {});
  EXPECT_THROW(sim.set_event_hook(10, [] {}), SimError);
  EXPECT_THROW(sim.clear_event_hook(); sim.set_event_hook(0, [] {}),
               SimError);
}

TEST(Timer, FiresOnceAtScheduledDelay) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPrevious) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  t.schedule_in(Time::millis(20));  // replaces the first
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(Timer, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRescheduleItselfFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] {
    if (++fires < 5) t.schedule_in(Time::millis(10));
  });
  t.schedule_in(Time::millis(10));
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.now(), Time::millis(50));
}

TEST(Timer, ExposesDeadlineWhilePending) {
  Simulator sim;
  Timer t(sim, [] {});
  sim.schedule_at(Time::millis(4), [] {});
  sim.run();
  t.schedule_in(Time::millis(10));
  EXPECT_EQ(t.deadline(), Time::millis(14));
  t.schedule_at(Time::millis(30));
  EXPECT_EQ(t.deadline(), Time::millis(30));
}

TEST(Timer, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.schedule_in(Time::millis(10));
  }  // destroyed while pending
  sim.run();  // must not crash or fire
  EXPECT_EQ(fires, 0);
}

TEST(Simulator, EventBudgetThrowsDeadlineExceeded) {
  Simulator sim;
  std::function<void()> chain = [&] {
    sim.schedule_in(Time::millis(1), chain);
  };
  sim.schedule_at(Time::millis(1), chain);
  sim.set_event_budget(50);
  try {
    sim.run_until(Time::seconds(10));
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kDeadlineExceeded);
    EXPECT_NE(e.detail().find("event budget"), std::string::npos);
  }
  EXPECT_EQ(sim.events_executed(), 50u);
}

// An event that reschedules itself at the current time: simulated time
// never advances, so no sim-time timer could ever interrupt it, but the
// event budget counts events and stops it exactly.
void livelock(Simulator& sim) {
  sim.schedule_at(sim.now(), [&sim] { livelock(sim); });
}

TEST(Simulator, EventBudgetHaltsSameTimeLivelock) {
  Simulator sim;
  sim.set_event_budget(10'000);
  livelock(sim);
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kDeadlineExceeded);
    EXPECT_NE(e.detail().find("event budget"), std::string::npos);
    EXPECT_NE(e.detail().find("pending"), std::string::npos);
  }
  EXPECT_EQ(sim.events_executed(), 10'000u);
  EXPECT_EQ(sim.now(), Time());
}

TEST(Simulator, EventBudgetCountsFromArming) {
  Simulator sim;
  for (int i = 0; i < 40; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run_until(Time::millis(100));  // 40 events, no budget yet
  sim.set_event_budget(50);          // 50 more from here, not from zero
  for (int i = 0; i < 45; ++i) {
    sim.schedule_at(Time::millis(200 + i), [] {});
  }
  sim.run_until(Time::seconds(1));  // 45 < 50: fits
  EXPECT_EQ(sim.events_executed(), 85u);
  EXPECT_EQ(sim.event_budget(), 50u);
}

TEST(Simulator, ZeroEventBudgetMeansUnlimited) {
  Simulator sim;
  sim.set_event_budget(10);
  sim.set_event_budget(0);  // disarm
  for (int i = 0; i < 100; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, ThreadEventCounterAccumulatesAcrossSimulators) {
  const std::uint64_t before = Simulator::thread_events_executed();
  {
    Simulator sim;
    for (int i = 0; i < 7; ++i) sim.schedule_at(Time::millis(i), [] {});
    sim.run();
  }
  {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_at(Time::millis(i), [] {});
    sim.run();
  }
  EXPECT_EQ(Simulator::thread_events_executed() - before, 12u);
}

TEST(Simulator, ConstructObserverSeesEveryNewSimulator) {
  int seen = 0;
  Simulator::set_thread_construct_observer(
      [&](Simulator& s) { ++seen; s.set_event_budget(123); });
  Simulator a;
  Simulator b;
  Simulator::set_thread_construct_observer(nullptr);
  Simulator c;  // after clearing: unobserved
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(a.event_budget(), 123u);
  EXPECT_EQ(b.event_budget(), 123u);
  EXPECT_EQ(c.event_budget(), 0u);
}

TEST(Simulator, SecondConstructObserverIsRejected) {
  Simulator::set_thread_construct_observer([](Simulator&) {});
  EXPECT_THROW(Simulator::set_thread_construct_observer([](Simulator&) {}),
               SimError);
  Simulator::set_thread_construct_observer(nullptr);
}

}  // namespace
}  // namespace slowcc::sim
