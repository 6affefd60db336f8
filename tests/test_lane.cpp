#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/lane.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::sim {
namespace {

// Records every lane entry that fires: its arg and the clock at the
// time. A lane must never fire a tombstone, whose ctx is null.
struct Recorder {
  Simulator* sim = nullptr;
  std::vector<std::uint64_t> args;
  std::vector<Time> times;
};

int g_tombstone_fires = 0;

void record(void* ctx, std::uint64_t arg) {
  if (ctx == nullptr) {
    ++g_tombstone_fires;
    return;
  }
  auto* rec = static_cast<Recorder*>(ctx);
  rec->args.push_back(arg);
  rec->times.push_back(rec->sim->now());
}

std::vector<std::uint64_t> iota_except(std::uint64_t n,
                                       const std::vector<std::uint64_t>& skip) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < n; ++i) {
    bool skipped = false;
    for (std::uint64_t s : skip) skipped = skipped || s == i;
    if (!skipped) out.push_back(i);
  }
  return out;
}

TEST(Lane, FifoAcrossRingGrowthAndWrapAround) {
  g_tombstone_fires = 0;
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& lane = sim.acquire_lane(Time::micros(100), &record);
  EXPECT_EQ(lane.duration(), Time::micros(100));
  // Post 3 per 10 us and fire as we go: the head walks off slot 0, the
  // ring grows past 16 with the head mid-ring, and the positions wrap
  // the ring many times over.
  std::uint64_t next = 0;
  std::vector<Time> posted_at;
  for (int step = 0; step < 200; ++step) {
    for (int k = 0; k < 3; ++k) {
      lane.post(&rec, next++);
      posted_at.push_back(sim.now());
    }
    sim.run_until(sim.now() + Time::micros(10));
  }
  sim.run();
  ASSERT_EQ(rec.args.size(), next);
  for (std::uint64_t i = 0; i < next; ++i) {
    EXPECT_EQ(rec.args[i], i);
    EXPECT_EQ(rec.times[i], posted_at[i] + Time::micros(100));
  }
  EXPECT_EQ(lane.live(), 0u);
  EXPECT_EQ(g_tombstone_fires, 0);
}

TEST(Lane, RevokeAtHeadMiddleAndTailWithTicketsTakenBeforeGrowth) {
  g_tombstone_fires = 0;
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& lane = sim.acquire_lane(Time::micros(50), &record);
  std::vector<LaneTicket> tickets;
  // 4 entries into the 16-entry ring, then 36 more (one per us, so
  // their times differ) grow it twice.
  for (std::uint64_t i = 0; i < 40; ++i) {
    tickets.push_back(lane.post(&rec, i));
    if (i >= 3) sim.run_until(sim.now() + Time::micros(1));
  }
  // Middle first, then the head: the head must skip both its own
  // tombstone and the one behind it.
  lane.revoke(tickets[1]);
  lane.revoke(tickets[0]);
  lane.revoke(tickets[20]);
  lane.revoke(tickets[39]);  // the tail
  EXPECT_EQ(lane.live(), 36u);
  EXPECT_EQ(sim.pending_events(), 36u);
  // Revoking twice is a no-op.
  lane.revoke(tickets[20]);
  EXPECT_EQ(lane.live(), 36u);

  // Entries 0..3 were posted together at t=0; 2 and 3 are the live
  // head, so nothing fires before their time.
  sim.run_until(Time::micros(50) - Time::nanos(1));
  EXPECT_EQ(sim.events_executed(), 0u);
  sim.run_until(Time::micros(50));
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{2, 3}));
  // A fired ticket revokes nothing.
  lane.revoke(tickets[2]);
  EXPECT_EQ(lane.live(), 34u);

  sim.run();
  EXPECT_EQ(rec.args, iota_except(40, {0, 1, 20, 39}));
  EXPECT_EQ(sim.events_executed(), 36u);
  EXPECT_EQ(g_tombstone_fires, 0);
}

TEST(Lane, RevokingEveryEntryDisarmsTheLane) {
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& lane = sim.acquire_lane(Time::micros(5), &record);
  const LaneTicket a = lane.post(&rec, 1);
  const LaneTicket b = lane.post(&rec, 2);
  EXPECT_EQ(sim.armed_chains(), 1u);
  lane.revoke(b);
  lane.revoke(a);
  EXPECT_EQ(sim.armed_chains(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The emptied lane re-arms on the next post.
  lane.post(&rec, 3);
  sim.run();
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(sim.now(), Time::micros(5));
}

TEST(Lane, PendingEventsCountsPostRevokeAndFire) {
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& fast = sim.acquire_lane(Time::micros(10), &record);
  Lane& slow = sim.acquire_lane(Time::micros(30), &record);
  EXPECT_NE(&fast, &slow);
  sim.schedule_in(Time::micros(20), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  const LaneTicket f0 = fast.post(&rec, 0);
  fast.post(&rec, 1);
  slow.post(&rec, 2);
  EXPECT_EQ(sim.pending_events(), 4u);
  fast.revoke(f0);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until(Time::micros(10));  // fast's live entry fires
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(fast.live(), 0u);
  sim.run_until(Time::micros(20));  // the engine event
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Lane, AcquireSharesByDurationAndCallbackAndRecyclesIdleLanes) {
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& a = sim.acquire_lane(Time::micros(10), &record);
  Lane& b = sim.acquire_lane(Time::micros(10), &record);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(sim.lane_stats().in_use, 1u);
  a.post(&rec, 7);
  sim.release_lane(a);
  sim.release_lane(b);
  // No source points at it, but it still holds an entry: in use.
  EXPECT_EQ(sim.lane_stats().in_use, 1u);
  Lane& c = sim.acquire_lane(Time::micros(20), &record);
  EXPECT_NE(&c, &a);
  EXPECT_EQ(sim.lane_stats().allocated, 2u);
  sim.run();
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{7}));
  // Drained and unreferenced: the next new duration re-purposes it.
  EXPECT_EQ(sim.lane_stats().in_use, 1u);
  Lane& d = sim.acquire_lane(Time::micros(30), &record);
  EXPECT_EQ(&d, &a);
  EXPECT_EQ(d.duration(), Time::micros(30));
  EXPECT_EQ(sim.lane_stats().allocated, 2u);
}

TEST(Lane, RevokeLaneEntriesTakesOnlyTheSourcesEntries) {
  Simulator sim;
  Recorder mine{&sim, {}, {}};
  Recorder other{&sim, {}, {}};
  Lane& x = sim.acquire_lane(Time::micros(10), &record);
  Lane& y = sim.acquire_lane(Time::micros(15), &record);
  for (std::uint64_t i = 0; i < 6; ++i) {
    x.post(i % 2 == 0 ? &mine : &other, i);
    y.post(i % 3 == 0 ? &mine : &other, 10 + i);
  }
  static std::vector<std::uint64_t> revoked;
  revoked.clear();
  sim.revoke_lane_entries(&mine, 5, [](void*, std::uint64_t arg) {
    revoked.push_back(arg);
  });
  EXPECT_EQ(revoked, (std::vector<std::uint64_t>{0, 2, 4, 10, 13}));
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.run();
  EXPECT_TRUE(mine.args.empty());
  EXPECT_EQ(other.args, (std::vector<std::uint64_t>{1, 3, 5, 11, 12, 14, 15}));
}

// ====================================================================
// Differential: a random post/revoke/schedule/cancel/run script over
// three lanes and the engine, checked against the ordered-map
// reference scheduler. Every post and schedule draws the next seq, and
// the reference numbers its events in the same order, so the fired
// (at, seq) stream, pending counts, pending times and the trace digest
// must all agree exactly.

struct Fired {
  std::vector<std::uint64_t>* log;
  std::uint64_t label;
  void operator()() const { log->push_back(label); }
};

std::vector<std::uint64_t>* g_lane_log = nullptr;

void log_lane(void* /*ctx*/, std::uint64_t arg) { g_lane_log->push_back(arg); }

std::string run_random_lane_script(std::uint64_t seed) {
  std::vector<std::uint64_t> sim_log;
  std::vector<std::uint64_t> ref_log;
  g_lane_log = &sim_log;
  Simulator sim;
  test::ReferenceScheduler ref;
  const Time durations[] = {Time(), Time::micros(3), Time::micros(17)};
  Lane* lanes[3];
  for (int i = 0; i < 3; ++i) lanes[i] = &sim.acquire_lane(durations[i], &log_lane);

  struct Posted {
    bool on_lane;
    LaneTicket ticket;
    EventId id;
    test::ReferenceScheduler::Id ref_id;
  };
  std::vector<Posted> posted;
  Rng rng(seed);
  std::uint64_t ref_digest = kFnvOffsetBasis;
  std::uint64_t label = 0;
  int ctx_token = 0;

  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const int k = static_cast<int>(rng.uniform_int(3));
      Posted p{true, lanes[k]->post(&ctx_token, label), EventId{},
               ref.schedule(sim.now() + durations[k],
                            Fired{&ref_log, label})};
      posted.push_back(p);
      ++label;
    } else if (roll < 0.60) {
      const Time delay = Time::micros(static_cast<std::int64_t>(rng.uniform_int(25)));
      Posted p{false, LaneTicket{},
               sim.schedule_in(delay, Fired{&sim_log, label}),
               ref.schedule(sim.now() + delay, Fired{&ref_log, label})};
      posted.push_back(p);
      ++label;
    } else if (roll < 0.80) {
      if (posted.empty()) continue;
      const Posted& p = posted[rng.uniform_int(posted.size())];
      if (p.on_lane) {
        p.ticket.lane->revoke(p.ticket);
      } else {
        sim.cancel(p.id);
      }
      ref.cancel(p.ref_id);
    } else {
      const Time deadline =
          sim.now() + Time::micros(static_cast<std::int64_t>(rng.uniform_int(12)));
      sim.run_until(deadline);
      while (ref.size() != 0 && ref.next_time() <= deadline) {
        PoppedEvent e;
        auto cb = ref.pop(&e);
        ref_digest = fnv1a_u64(
            fnv1a_u64(ref_digest, static_cast<std::uint64_t>(e.at.as_nanos())),
            e.seq);
        cb();
      }
    }
    if (sim.pending_events() != ref.size()) {
      return "op " + std::to_string(op) + ": pending " +
             std::to_string(sim.pending_events()) + " vs reference " +
             std::to_string(ref.size());
    }
    if (sim.pending_event_times(8) != ref.pending_times(8)) {
      return "op " + std::to_string(op) + ": pending_event_times differ";
    }
  }
  sim.run();
  while (ref.size() != 0) {
    PoppedEvent e;
    auto cb = ref.pop(&e);
    ref_digest = fnv1a_u64(
        fnv1a_u64(ref_digest, static_cast<std::uint64_t>(e.at.as_nanos())),
        e.seq);
    cb();
  }
  g_lane_log = nullptr;
  if (sim_log != ref_log) return "fired order differs from the reference";
  if (sim.trace_digest() != ref_digest) return "trace digest differs";
  if (sim.armed_chains() != 0) return "a lane stayed armed after draining";
  return {};
}

TEST(Lane, RandomScriptsMatchReferenceScheduler) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = derive_seed(0x1a4e5ULL, trial);
    EXPECT_EQ(run_random_lane_script(seed), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace slowcc::sim
