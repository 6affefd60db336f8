#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/error.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace slowcc::sim {
namespace {

// Timer rides EventQueue's FIFO tie-break at equal timestamps: a
// rearm moves the pending event in place under a new sequence number,
// exactly as a cancel + fresh schedule would, and so moves the timer
// behind existing events at the same deadline. These tests pin that
// contract, because transport agents (retransmit timers rearmed every
// packet) depend on it for deterministic traces.
class TimerTest : public ::testing::Test {
 protected:
  Simulator sim;
};

TEST_F(TimerTest, EqualDeadlinesFireInArmingOrder) {
  std::vector<int> fired;
  Timer t1(sim, [&] { fired.push_back(1); });
  Timer t2(sim, [&] { fired.push_back(2); });
  Timer t3(sim, [&] { fired.push_back(3); });
  t2.schedule_at(Time::millis(5));
  t1.schedule_at(Time::millis(5));
  t3.schedule_at(Time::millis(5));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
}

TEST_F(TimerTest, RescheduleMovesTimerBehindEqualTimePeers) {
  std::vector<std::string> order;
  Timer a(sim, [&] { order.push_back("a"); });
  Timer b(sim, [&] { order.push_back("b"); });
  a.schedule_at(Time::millis(5));
  b.schedule_at(Time::millis(5));
  // Rearming at the unchanged deadline is NOT a no-op: it replaces the
  // event and therefore surrenders a's place in the tie.
  a.schedule_at(Time::millis(5));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST_F(TimerTest, CancelDoesNotDisturbRemainingTieOrder) {
  std::vector<int> fired;
  Timer t1(sim, [&] { fired.push_back(1); });
  Timer t2(sim, [&] { fired.push_back(2); });
  Timer t3(sim, [&] { fired.push_back(3); });
  t1.schedule_at(Time::millis(7));
  t2.schedule_at(Time::millis(7));
  t3.schedule_at(Time::millis(7));
  t2.cancel();
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_F(TimerTest, CancelThenRearmAtSameDeadlineGoesToBack) {
  std::vector<int> fired;
  Timer t1(sim, [&] { fired.push_back(1); });
  Timer t2(sim, [&] { fired.push_back(2); });
  t1.schedule_at(Time::millis(3));
  t2.schedule_at(Time::millis(3));
  t1.cancel();
  t1.schedule_at(Time::millis(3));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST_F(TimerTest, RescheduleToEarlierDeadlineFiresEarlier) {
  std::vector<int> fired;
  Timer t1(sim, [&] { fired.push_back(1); });
  Timer t2(sim, [&] { fired.push_back(2); });
  t1.schedule_at(Time::millis(10));
  t2.schedule_at(Time::millis(5));
  t1.schedule_at(Time::millis(2));
  EXPECT_EQ(t1.deadline(), Time::millis(2));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// A zero-delay rearm from inside the callback fires at the *same*
// timestamp but behind every event already pending there: its later
// seq, not its time, must order it after its equal-time peers.
TEST_F(TimerTest, ZeroDelayRearmFiresAfterEqualTimePeers) {
  std::vector<std::string> order;
  int a_fires = 0;
  Timer* a_ptr = nullptr;
  Timer a(sim, [&] {
    order.push_back("a");
    if (++a_fires == 1) a_ptr->schedule_in(Time::nanos(0));
  });
  a_ptr = &a;
  Timer b(sim, [&] { order.push_back("b"); });
  a.schedule_at(Time::millis(5));
  b.schedule_at(Time::millis(5));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(sim.now(), Time::millis(5));
}

TEST_F(TimerTest, RearmToLaterDeadlineFiresLater) {
  std::vector<int> fired;
  Timer t1(sim, [&] { fired.push_back(1); });
  Timer t2(sim, [&] { fired.push_back(2); });
  t1.schedule_at(Time::millis(2));
  t2.schedule_at(Time::millis(5));
  t1.schedule_in(Time::millis(8));
  EXPECT_EQ(t1.deadline(), Time::millis(8));
  EXPECT_EQ(t1.engine_time(), Time::millis(8));
  sim.run_until(Time::millis(7));
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_TRUE(t1.pending());
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  EXPECT_EQ(sim.now(), Time::millis(8));
}

class TimerErrorTest : public TimerTest,
                       public ::testing::WithParamInterface<bool> {};

// A past deadline or a negative delay throws kBadSchedule and leaves
// the timer idle, whether it was idle or pending before; a pending
// timer's old event is cancelled, not left to fire.
TEST_P(TimerErrorTest, BadDeadlineThrowsAndLeavesTimerIdle) {
  const bool was_pending = GetParam();
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  Timer clock(sim, [] {});
  clock.schedule_at(Time::millis(10));
  sim.run();
  const auto expect_bad_schedule = [&](auto&& arm) {
    if (was_pending) t.schedule_in(Time::millis(5));
    try {
      arm();
      ADD_FAILURE() << "expected SimError(kBadSchedule)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
    }
    EXPECT_FALSE(t.pending());
    EXPECT_EQ(t.engine_time(), std::nullopt);
    EXPECT_EQ(sim.pending_events(), 0u);
  };
  expect_bad_schedule([&] { t.schedule_at(Time::millis(9)); });
  expect_bad_schedule([&] { t.schedule_in(Time::millis(-1)); });
  sim.run();
  EXPECT_EQ(fired, 0);
  // The timer is usable again afterwards.
  t.schedule_in(Time::millis(1));
  sim.run();
  EXPECT_EQ(fired, 1);
}

INSTANTIATE_TEST_SUITE_P(IdleOrPending, TimerErrorTest, ::testing::Bool());

TEST_F(TimerTest, PendingTracksArmAndFire) {
  Timer t(sim, [] {});
  EXPECT_FALSE(t.pending());
  t.schedule_in(Time::millis(1));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_FALSE(t.pending());
}

}  // namespace
}  // namespace slowcc::sim
