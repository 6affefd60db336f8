#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace slowcc::sim {
namespace {

class EventQueueTest : public ::testing::Test {
 protected:
  EventQueue q;
};

TEST_F(EventQueueTest, PopsInTimeOrder) {
  std::vector<int> fired;
  q.schedule(Time::millis(30), [&] { fired.push_back(3); });
  q.schedule(Time::millis(10), [&] { fired.push_back(1); });
  q.schedule(Time::millis(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, EqualTimesFireInInsertionOrder) {
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::millis(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop(nullptr)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST_F(EventQueueTest, ReportsFireTime) {
  q.schedule(Time::millis(42), [] {});
  PoppedEvent ev;
  (void)q.pop(&ev);
  EXPECT_EQ(ev.at, Time::millis(42));
}

TEST_F(EventQueueTest, PopEventReportsFifoSeq) {
  q.schedule(Time::millis(7), [] {});
  q.schedule(Time::millis(7), [] {});
  PoppedEvent ev;
  (void)q.pop(&ev);
  EXPECT_EQ(ev.at, Time::millis(7));
  EXPECT_EQ(ev.seq, 1u);
  (void)q.pop(&ev);
  EXPECT_EQ(ev.seq, 2u);
}

TEST_F(EventQueueTest, CancelPreventsExecution) {
  bool ran = false;
  EventId id = q.schedule(Time::millis(1), [&] { ran = true; });
  q.schedule(Time::millis(2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_FALSE(ran);
}

TEST_F(EventQueueTest, CancelAfterFireIsNoOp) {
  EventId id = q.schedule(Time::millis(1), [] {});
  (void)q.pop(nullptr);
  q.cancel(id);  // must not corrupt bookkeeping
  EXPECT_TRUE(q.empty());
  q.schedule(Time::millis(2), [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST_F(EventQueueTest, DoubleCancelIsNoOp) {
  EventId id = q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(2), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST_F(EventQueueTest, DefaultEventIdIsInvalid) {
  EventId id;
  EXPECT_FALSE(id.valid());
  q.cancel(id);  // harmless
  EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventId early = q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::millis(5));
}

TEST_F(EventQueueTest, CancelOfFiredIdDoesNotAffectLaterEvents) {
  // The already-fired id must not alias any live entry even after the
  // queue is reused for new events.
  EventId fired_id = q.schedule(Time::millis(1), [] {});
  (void)q.pop(nullptr);
  bool ran = false;
  q.schedule(Time::millis(2), [&] { ran = true; });
  q.cancel(fired_id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_TRUE(ran);
}

TEST_F(EventQueueTest, PendingTimesSkipsCancelledAndSorts) {
  q.schedule(Time::millis(30), [] {});
  EventId mid = q.schedule(Time::millis(20), [] {});
  q.schedule(Time::millis(10), [] {});
  q.cancel(mid);
  const auto times = q.pending_times(8);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Time::millis(10));
  EXPECT_EQ(times[1], Time::millis(30));
}

TEST_F(EventQueueTest, PendingTimesHonoursCap) {
  for (int i = 0; i < 10; ++i) q.schedule(Time::millis(i), [] {});
  const auto times = q.pending_times(3);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], Time::millis(0));
  EXPECT_EQ(times[2], Time::millis(2));
}

TEST_F(EventQueueTest, ManyInterleavedOperations) {
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(Time::micros(i), [&] { ++fired; }));
  }
  for (int i = 0; i < 1000; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, 500);
}

// Regression: next_time() on an all-cancelled queue used to trip an
// assert (and silently misbehave in release builds); it must raise the
// same structured error as a genuinely empty queue.
TEST_F(EventQueueTest, NextTimeOnAllCancelledThrowsSimError) {
  std::vector<EventId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(q.schedule(Time::millis(i + 1), [] {}));
  }
  for (EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  try {
    (void)q.next_time();
    FAIL() << "next_time() on an all-cancelled queue did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
    EXPECT_EQ(e.component(), "EventQueue");
  }
}

TEST_F(EventQueueTest, PopOnEmptyThrowsSimError) {
  EXPECT_THROW((void)q.pop(nullptr), SimError);
  q.schedule(Time::millis(1), [] {});
  (void)q.pop(nullptr);
  EXPECT_THROW((void)q.pop(nullptr), SimError);
}

// Regression: cancelling the last remaining event and then asking for
// the next event must behave exactly like an empty queue — and the
// queue must stay usable afterwards.
TEST_F(EventQueueTest, CancelLastEventLeavesQueueUsable) {
  EventId only = q.schedule(Time::millis(9), [] {});
  q.cancel(only);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.next_time(), SimError);
  bool ran = false;
  q.schedule(Time::millis(10), [&] { ran = true; });
  EXPECT_EQ(q.next_time(), Time::millis(10));
  q.pop(nullptr)();
  EXPECT_TRUE(ran);
}

// Regression: a Simulator whose queue was entirely cancelled must
// complete run() as a no-op instead of dying inside next_time().
TEST_F(EventQueueTest, SimulatorRunAfterCancelAllCompletes) {
  Simulator s;
  bool ran = false;
  EventId a = s.schedule_in(Time::millis(1), [&] { ran = true; });
  EventId b = s.schedule_in(Time::millis(2), [&] { ran = true; });
  s.cancel(a);
  s.cancel(b);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_executed(), 0u);
}

// Nodes come back through the free list: a steady-state schedule/fire
// cycle must not grow the pool.
TEST(EventQueuePool, ReusesNodes) {
  EventQueue q;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      q.schedule(Time::micros(round * 1000 + i), [] {});
    }
    while (!q.empty()) q.pop(nullptr)();
  }
  EXPECT_EQ(q.stats().capacity, 100u);  // pool high-water mark, reused
  EXPECT_EQ(q.stats().stored, 0u);
}

// Cancelling removes the heap entry and reclaims its node at once,
// not lazily at pop time: a cancel-all leaves nothing stored, and the
// next schedules reuse the reclaimed nodes.
TEST(EventQueuePool, CancelReclaimsNodesAtOnce) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(q.schedule(Time::millis(i + 1), [] {}));
  }
  for (EventId id : ids) q.cancel(id);
  EXPECT_EQ(q.stats().stored, 0u);
  for (int i = 0; i < 50; ++i) q.schedule(Time::millis(i + 1), [] {});
  EXPECT_EQ(q.stats().capacity, 50u);
}

// A reschedule moves the entry in place: the live count, the node
// pool and the id itself stay put, and the same callback fires at the
// new time.
TEST(EventQueueReschedule, KeepsSizeCapacityAndId) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(Time::millis(5), [&] { fired.push_back(1); });
  q.schedule(Time::millis(3), [&] { fired.push_back(2); });
  const EventQueue::Stats before = q.stats();
  EXPECT_TRUE(q.reschedule(a, Time::millis(1)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.stats().stored, before.stored);
  EXPECT_EQ(q.stats().capacity, before.capacity);
  EXPECT_EQ(q.pending_time(a), Time::millis(1));
  EXPECT_TRUE(q.reschedule(a, Time::millis(9)));
  EXPECT_EQ(q.pending_time(a), Time::millis(9));
  PoppedEvent ev;
  q.pop(&ev)();
  EXPECT_EQ(ev.at, Time::millis(3));
  q.pop(&ev)();
  EXPECT_EQ(ev.at, Time::millis(9));
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

// The moved entry takes a fresh seq, exactly as cancel + schedule
// would: behind an equal-time peer scheduled after it.
TEST(EventQueueReschedule, MintsAFreshSeq) {
  EventQueue q;
  const EventId a = q.schedule(Time::millis(5), [] {});
  q.schedule(Time::millis(5), [] {});
  EXPECT_TRUE(q.reschedule(a, Time::millis(5)));
  PoppedEvent first;
  PoppedEvent second;
  q.pop(&first)();
  q.pop(&second)();
  EXPECT_EQ(first.seq, 2u);
  EXPECT_EQ(second.seq, 3u);
}

TEST(EventQueueReschedule, RejectsFiredCancelledAndDefaultIds) {
  EventQueue q;
  const EventId fired = q.schedule(Time::millis(1), [] {});
  const EventId cancelled = q.schedule(Time::millis(2), [] {});
  q.schedule(Time::millis(4), [] {});
  q.pop(nullptr)();
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_FALSE(q.reschedule(fired, Time::millis(3)));
  EXPECT_FALSE(q.reschedule(cancelled, Time::millis(3)));
  EXPECT_FALSE(q.reschedule(EventId{}, Time::millis(3)));
  EXPECT_EQ(q.pending_time(fired), std::nullopt);
  EXPECT_EQ(q.pending_time(cancelled), std::nullopt);
  EXPECT_EQ(q.pending_time(EventId{}), std::nullopt);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), Time::millis(4));
}

// A reused node's old id stays stale: its generation no longer
// matches, so a reschedule through it cannot move the new event.
TEST(EventQueueReschedule, StaleIdOfReusedNodeIsRejected) {
  EventQueue q;
  const EventId old = q.schedule(Time::millis(1), [] {});
  q.pop(nullptr)();
  const EventId reused = q.schedule(Time::millis(2), [] {});
  EXPECT_FALSE(q.reschedule(old, Time::millis(7)));
  EXPECT_EQ(q.pending_time(reused), Time::millis(2));
}

TEST(SimulatorReschedule, PastTimeThrowsAndCancels) {
  Simulator s;
  bool ran = false;
  s.schedule_at(Time::millis(5), [] {});
  const EventId id = s.schedule_at(Time::millis(9), [&] { ran = true; });
  s.run_until(Time::millis(6));
  try {
    s.reschedule(id, Time::millis(2));
    FAIL() << "a past time must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
  }
  EXPECT_EQ(s.pending_time(id), std::nullopt);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorReschedule, IdOfNoPendingEventIsAnInvariantViolation) {
  Simulator s;
  const EventId id = s.schedule_at(Time::millis(1), [] {});
  s.run();
  try {
    s.reschedule(id, Time::millis(3));
    FAIL() << "a fired id must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kInvariantViolation);
  }
  EXPECT_EQ(s.pending_events(), 0u);
}

}  // namespace
}  // namespace slowcc::sim
