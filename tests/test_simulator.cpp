#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
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

// ====================================================================
// Drain chains (DESIGN.md §14.3): armed chains live in a heap keyed on
// (at, seq) and merge with engine events into one total order.

// A chain that logs each firing and runs an optional action; one-shot
// unless the action re-keys it.
struct LoggedChain {
  Simulator* sim = nullptr;
  int id = 0;
  std::vector<int>* log = nullptr;
  std::function<void(LoggedChain&)> action;
  ChainedEvent ev;

  LoggedChain() {
    ev.fire = [](void* ctx) {
      auto* self = static_cast<LoggedChain*>(ctx);
      self->log->push_back(self->id);
      self->sim->disarm_chain(&self->ev);
      if (self->action) self->action(*self);
    };
    ev.ctx = this;
  }
  LoggedChain(const LoggedChain&) = delete;
  LoggedChain& operator=(const LoggedChain&) = delete;
};

std::vector<std::unique_ptr<LoggedChain>> make_chains(Simulator& sim, int n,
                                                      std::vector<int>* log) {
  std::vector<std::unique_ptr<LoggedChain>> chains;
  for (int i = 0; i < n; ++i) {
    auto c = std::make_unique<LoggedChain>();
    c->sim = &sim;
    c->id = i;
    c->log = log;
    chains.push_back(std::move(c));
  }
  return chains;
}

SimErrc error_code(const std::function<void()>& f) {
  try {
    f();
  } catch (const SimError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected SimError";
  return SimErrc::kInvariantViolation;
}

TEST(SimulatorChains, ManyChainsArmedOutOfOrderFireSortedByAtSeq) {
  Simulator sim;
  std::vector<int> log;
  constexpr int kChains = 200;
  auto chains = make_chains(sim, kChains, &log);
  // Few distinct times, so most (at) values tie and seq decides; seqs
  // are minted in id order but chains are armed in shuffled order.
  for (auto& c : chains) {
    c->ev.at = Time::millis(1 + (c->id * 37) % 11);
    c->ev.seq = sim.mint_event_seq();
  }
  std::vector<int> arm_order(kChains);
  for (int i = 0; i < kChains; ++i) arm_order[i] = i;
  std::shuffle(arm_order.begin(), arm_order.end(), std::mt19937(12345));
  for (int i : arm_order) sim.arm_chain(&chains[i]->ev);
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kChains));

  std::vector<int> expected = arm_order;
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    return std::tie(chains[a]->ev.at, chains[a]->ev.seq) <
           std::tie(chains[b]->ev.at, chains[b]->ev.seq);
  });
  sim.run();
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(kChains));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), Time::millis(11));
}

TEST(SimulatorChains, ChainsMergeWithEngineEventsByAtSeq) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 64, &log);
  // Alternate chain seqs and engine schedules on the one counter; ids
  // >= 1000 mark engine events. Creation order is seq order.
  std::vector<std::tuple<Time, int, int>> expected;  // (at, order, id)
  int order = 0;
  for (auto& c : chains) {
    const Time at = Time::millis(1 + (c->id * 7) % 5);
    c->ev.at = at;
    c->ev.seq = sim.mint_event_seq();
    expected.emplace_back(at, order++, c->id);
    const int engine_id = 1000 + c->id;
    const Time engine_at = Time::millis(1 + (c->id * 3) % 5);
    sim.schedule_at(engine_at, [&log, engine_id] { log.push_back(engine_id); });
    expected.emplace_back(engine_at, order++, engine_id);
  }
  for (int i = 63; i >= 0; --i) sim.arm_chain(&chains[i]->ev);
  std::sort(expected.begin(), expected.end());
  sim.run();
  std::vector<int> expected_ids;
  for (const auto& e : expected) expected_ids.push_back(std::get<2>(e));
  EXPECT_EQ(log, expected_ids);
}

TEST(SimulatorChains, RetimeMovesChainEarlierAndLater) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 80, &log);
  for (auto& c : chains) {
    c->ev.at = Time::millis(10 * (c->id + 1));
    c->ev.seq = sim.mint_event_seq();
    sim.arm_chain(&c->ev);
  }
  // Chain 70 (due at 710 ms) moves to the front, chain 3 (due at 40 ms)
  // to the back; a re-timed chain takes a fresh seq.
  sim.retime_chain(&chains[70]->ev, Time::millis(5), sim.mint_event_seq(), 1);
  sim.retime_chain(&chains[3]->ev, Time::seconds(2), sim.mint_event_seq(), 1);
  std::vector<Time> fired_at;
  chains[70]->action = [&](LoggedChain&) { fired_at.push_back(sim.now()); };
  chains[3]->action = [&](LoggedChain&) { fired_at.push_back(sim.now()); };
  sim.run();
  ASSERT_EQ(log.size(), 80u);
  EXPECT_EQ(log.front(), 70);
  EXPECT_EQ(log.back(), 3);
  EXPECT_EQ(fired_at, (std::vector<Time>{Time::millis(5), Time::seconds(2)}));
  std::vector<int> middle(log.begin() + 1, log.end() - 1);
  EXPECT_TRUE(std::is_sorted(middle.begin(), middle.end()));
}

TEST(SimulatorChains, ChainReKeysItselfFromInsideFire) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 2, &log);
  LoggedChain& burst = *chains[0];
  int left = 4;
  burst.ev.fire = [](void* ctx) {
    auto* self = static_cast<LoggedChain*>(ctx);
    self->log->push_back(self->id);
    self->action(*self);
  };
  burst.action = [&](LoggedChain& self) {
    if (--left == 0) {
      sim.disarm_chain(&self.ev);
    } else {
      sim.retime_chain(&self.ev, sim.now() + Time::millis(2),
                       sim.mint_event_seq(), 1);
    }
  };
  burst.ev.at = Time::millis(1);
  burst.ev.seq = sim.mint_event_seq();
  sim.arm_chain(&burst.ev);
  chains[1]->ev.at = Time::millis(4);
  chains[1]->ev.seq = sim.mint_event_seq();
  sim.arm_chain(&chains[1]->ev);
  sim.run();
  // Burst fires at 1, 3, 5, 7 ms; the other chain at 4 ms in between.
  EXPECT_EQ(log, (std::vector<int>{0, 0, 1, 0, 0}));
  EXPECT_EQ(sim.now(), Time::millis(7));
}

TEST(SimulatorChains, DisarmFromMiddleOfHeapAndFromInsideFire) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 100, &log);
  for (auto& c : chains) {
    c->ev.at = Time::millis(1 + (c->id * 13) % 100);
    c->ev.seq = sim.mint_event_seq();
    sim.arm_chain(&c->ev);
  }
  // Disarm from the middle of the heap, twice (the second is a no-op).
  sim.disarm_chain(&chains[41]->ev);
  sim.disarm_chain(&chains[41]->ev);
  sim.disarm_chain(&chains[77]->ev);
  EXPECT_FALSE(chains[41]->ev.armed());
  // The first chain to fire disarms two chains that are still pending.
  auto first = std::min_element(chains.begin(), chains.end(),
                                [](const auto& a, const auto& b) {
                                  return a->ev.at < b->ev.at;
                                });
  (*first)->action = [&](LoggedChain&) {
    sim.disarm_chain(&chains[5]->ev);
    sim.disarm_chain(&chains[90]->ev);
  };
  EXPECT_EQ(sim.pending_events(), 98u);
  sim.run();
  EXPECT_EQ(log.size(), 96u);
  for (int gone : {41, 77, 5, 90}) {
    EXPECT_EQ(std::count(log.begin(), log.end(), gone), 0) << gone;
  }
  std::vector<Time> times;
  for (int id : log) times.push_back(chains[id]->ev.at);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorChains, RandomArmDisarmRetimeMatchesSortedReference) {
  Simulator sim;
  std::vector<int> log;
  constexpr int kChains = 96;
  auto chains = make_chains(sim, kChains, &log);
  // The reference: what each chain was last asked to be, kept apart
  // from the ChainedEvents the Simulator maintains.
  struct Want {
    bool armed = false;
    Time at;
    std::uint64_t seq = 0;
    std::uint64_t pending = 0;
  };
  std::vector<Want> want(kChains);
  std::mt19937 rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const int id = static_cast<int>(rng() % kChains);
    LoggedChain& c = *chains[id];
    Want& w = want[id];
    const Time at = Time::millis(1 + static_cast<std::int64_t>(rng() % 50));
    const std::uint64_t seq = sim.mint_event_seq();
    const std::uint64_t pending = 1 + rng() % 4;
    switch (rng() % 5) {
      case 0:
        sim.disarm_chain(&c.ev);
        w.armed = false;
        break;
      case 1:
      case 2:
        if (w.armed) {
          sim.retime_chain(&c.ev, at, seq, pending);
        } else {
          c.ev.at = at;
          c.ev.seq = seq;
          c.ev.pending = pending;
          sim.arm_chain(&c.ev);
        }
        w = Want{true, at, seq, pending};
        break;
      case 3:
        // Same key, new share of pending_events() (a wire-FIFO push).
        if (w.armed) {
          sim.retime_chain(&c.ev, w.at, w.seq, pending);
          w.pending = pending;
        }
        break;
      case 4:
        // Same time, fresh seq: the chain can only move later.
        if (w.armed) {
          sim.retime_chain(&c.ev, w.at, seq, w.pending);
          w.seq = seq;
        }
        break;
    }
  }
  std::vector<int> expected;
  std::size_t pending_sum = 0;
  for (int id = 0; id < kChains; ++id) {
    EXPECT_EQ(chains[id]->ev.armed(), want[id].armed) << id;
    if (!want[id].armed) continue;
    expected.push_back(id);
    pending_sum += want[id].pending;
  }
  EXPECT_EQ(sim.pending_events(), pending_sum);
  EXPECT_EQ(sim.armed_chains(), expected.size());
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    return std::tie(want[a].at, want[a].seq) <
           std::tie(want[b].at, want[b].seq);
  });
  // The digest folds the (at, seq) each chain actually fired under.
  std::uint64_t digest = kFnvOffsetBasis;
  for (int id : expected) {
    digest = fnv1a_u64(
        fnv1a_u64(digest, static_cast<std::uint64_t>(want[id].at.as_nanos())),
        want[id].seq);
  }
  sim.run();
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.trace_digest(), digest);
}

TEST(SimulatorChains, SameKeyRetimeOnlyMovesPending) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 8, &log);
  for (auto& c : chains) {
    c->ev.at = Time::millis(8 - c->id);
    c->ev.seq = sim.mint_event_seq();
    sim.arm_chain(&c->ev);
  }
  // Re-key every chain with its own (at, seq) and a new pending count,
  // the way a lane grows behind an unchanged head.
  for (auto& c : chains) {
    sim.retime_chain(&c->ev, c->ev.at, c->ev.seq,
                     static_cast<std::uint64_t>(c->id) + 2);
  }
  EXPECT_EQ(sim.armed_chains(), 8u);
  EXPECT_EQ(sim.pending_events(), 2u + 3 + 4 + 5 + 6 + 7 + 8 + 9);
  sim.retime_chain(&chains[7]->ev, chains[7]->ev.at, chains[7]->ev.seq, 1);
  EXPECT_EQ(sim.pending_events(), 2u + 3 + 4 + 5 + 6 + 7 + 8 + 1);
  EXPECT_EQ(sim.armed_chains(), 8u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorChains, DisarmRefillThatBelongsAboveTheHoleSiftsUp) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 11, &log);
  // Arming keys that already satisfy the heap order, in slot order,
  // lays the heap out exactly as armed:
  //   slot:  0   1   2   3   4   5   6
  //   ms:    1  10   2  11  12  30   3
  const int ms[] = {1, 10, 2, 11, 12, 30, 3};
  for (int i = 0; i < 7; ++i) {
    chains[i]->ev.at = Time::millis(ms[i]);
    chains[i]->ev.seq = sim.mint_event_seq();
    sim.arm_chain(&chains[i]->ev);
  }
  ASSERT_EQ(chains[4]->ev.heap_slot, 4u);
  ASSERT_EQ(chains[6]->ev.heap_slot, 6u);
  // Disarming slot 4 (12 ms) refills it with the last leaf (3 ms, from
  // the other subtree), which is earlier than the hole's parent (10 ms)
  // and must move up.
  sim.disarm_chain(&chains[4]->ev);
  EXPECT_EQ(chains[6]->ev.heap_slot, 1u);
  EXPECT_EQ(chains[1]->ev.heap_slot, 4u);
  // Later chains appended behind it keep the refilled entry off the
  // end of the heap, where a root refill would have repaired it.
  for (int i = 7; i < 11; ++i) {
    chains[i]->ev.at = Time::millis(100 + i);
    chains[i]->ev.seq = sim.mint_event_seq();
    sim.arm_chain(&chains[i]->ev);
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 2, 6, 1, 3, 5, 7, 8, 9, 10}));
}

TEST(SimulatorChains, DoubleArmAndPastReKeysThrowBadSchedule) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 2, &log);
  LoggedChain& c = *chains[0];
  c.ev.at = Time::millis(20);
  c.ev.seq = sim.mint_event_seq();
  sim.arm_chain(&c.ev);
  EXPECT_EQ(error_code([&] { sim.arm_chain(&c.ev); }), SimErrc::kBadSchedule);

  sim.schedule_at(Time::millis(10), [] {});
  sim.run_until(Time::millis(10));
  EXPECT_EQ(error_code([&] {
              sim.retime_chain(&c.ev, Time::millis(5), sim.mint_event_seq(), 1);
            }),
            SimErrc::kBadSchedule);
  // A disarmed chain cannot be re-keyed, and arming one in the past
  // throws too.
  LoggedChain& idle = *chains[1];
  EXPECT_EQ(error_code([&] {
              sim.retime_chain(&idle.ev, Time::millis(30), 0, 1);
            }),
            SimErrc::kBadSchedule);
  idle.ev.at = Time::millis(9);
  EXPECT_EQ(error_code([&] { sim.arm_chain(&idle.ev); }),
            SimErrc::kBadSchedule);
  EXPECT_FALSE(idle.ev.armed());

  // The rejected calls left the armed chain exactly as it was.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0}));
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(SimulatorChains, PendingEventsCountsEngineEventsPlusChainPending) {
  Simulator sim;
  std::vector<int> log;
  auto chains = make_chains(sim, 3, &log);
  for (int i = 0; i < 5; ++i) sim.schedule_at(Time::millis(1 + i), [] {});
  const std::uint64_t pending[] = {1, 4, 7};
  for (int i = 0; i < 3; ++i) {
    chains[i]->ev.at = Time::millis(10 + i);
    chains[i]->ev.seq = sim.mint_event_seq();
    chains[i]->ev.pending = pending[i];
    sim.arm_chain(&chains[i]->ev);
  }
  EXPECT_EQ(sim.pending_events(), 5u + 1 + 4 + 7);
  sim.retime_chain(&chains[1]->ev, chains[1]->ev.at, chains[1]->ev.seq, 2);
  EXPECT_EQ(sim.pending_events(), 5u + 1 + 2 + 7);
  sim.disarm_chain(&chains[2]->ev);
  EXPECT_EQ(sim.pending_events(), 5u + 1 + 2);
  sim.run_until(Time::millis(3));  // three engine events
  EXPECT_EQ(sim.pending_events(), 2u + 1 + 2);
  sim.run_until(Time::millis(10));  // the rest, and chain 0
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace slowcc::sim
