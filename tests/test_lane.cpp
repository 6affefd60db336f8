#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/error.hpp"
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
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.pending_event_times(4),
            (std::vector<Time>{Time::micros(5), Time::micros(5)}));
  lane.revoke(b);
  lane.revoke(a);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.pending_event_times(4).empty());
  EXPECT_EQ(sim.lane_stats().most_live, 0u);
  // Nothing is left to fire, and the emptied lane takes the next post.
  sim.run_until(Time::micros(10));
  EXPECT_EQ(sim.events_executed(), 0u);
  lane.post(&rec, 3);
  sim.run();
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(sim.now(), Time::micros(15));
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

TEST(Lane, DrainedLaneLeftByADurationChangeLeavesTheMergeSet) {
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& old_tx = sim.acquire_lane(Time::micros(80), &record);
  Lane& delay = sim.acquire_lane(Time::millis(1), &record);
  old_tx.post(&rec, 0);
  delay.post(&rec, 1);
  EXPECT_EQ(sim.lane_stats().merging, 2u);
  // A bandwidth change moves the source to a new transmit lane; the old
  // one still holds an entry, so it is not re-purposed.
  sim.release_lane(old_tx);
  Lane& new_tx = sim.acquire_lane(Time::micros(40), &record);
  EXPECT_NE(&new_tx, &old_tx);
  new_tx.post(&rec, 2);
  EXPECT_EQ(sim.lane_stats().merging, 3u);
  // Both transmit entries fire: the old lane is allocated but idle, and
  // only the delay lane, still holding an entry, is merged.
  sim.run_until(Time::micros(100));
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{2, 0}));
  EXPECT_EQ(old_tx.live(), 0u);
  EXPECT_EQ(new_tx.live(), 0u);
  const LaneStats stats = sim.lane_stats();
  EXPECT_EQ(stats.allocated, 3u);
  EXPECT_EQ(stats.in_use, 2u);  // new_tx (claimed) and delay (an entry)
  EXPECT_EQ(stats.merging, 1u);
  const std::vector<MergedLane> set = sim.merge_set();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].lane, &delay);
  EXPECT_EQ(set[0].at, Time::millis(1));
  sim.run();
  EXPECT_EQ(sim.lane_stats().merging, 0u);
  EXPECT_TRUE(sim.merge_set().empty());
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

TEST(Lane, AcquireRejectsNullCallbackAndNegativeDuration) {
  Simulator sim;
  EXPECT_EQ(error_code([&] {
              (void)sim.acquire_lane(Time::micros(10), nullptr);
            }),
            SimErrc::kBadSchedule);
  EXPECT_EQ(error_code([&] {
              (void)sim.acquire_lane(Time::nanos(-1), &record);
            }),
            SimErrc::kBadSchedule);
  EXPECT_EQ(sim.lane_stats().allocated, 0u);
  // A zero duration is valid: the entry fires at the time it is posted.
  Recorder rec{&sim, {}, {}};
  sim.run_until(Time::micros(3));
  sim.acquire_lane(Time(), &record).post(&rec, 9);
  sim.run();
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(rec.times, (std::vector<Time>{Time::micros(3)}));
}

// ====================================================================
// Differential rig: lanes and engine events against the ordered-map
// reference scheduler. Every post and schedule draws the next seq on
// both sides in the same order, so both must fire the same labels under
// the same (at, seq) and agree on pending_events(),
// pending_event_times(), now() and the trace digest. A label may carry
// an action that runs when it fires, once on each side, so posts and
// revokes from inside a fire are mirrored too.

enum Side : int { kSimSide = 0, kRefSide = 1 };

class LaneRig {
 public:
  using Action = std::function<void(LaneRig&, Side)>;

  LaneRig() = default;
  LaneRig(const LaneRig&) = delete;
  LaneRig& operator=(const LaneRig&) = delete;

  Simulator& sim() { return sim_; }

  // Claims the lane for `duration`; returns the rig's index for it.
  int add_lane(Time duration) {
    durations_.push_back(duration);
    lanes_.push_back(&sim_.acquire_lane(duration, &LaneRig::fire));
    note_duration(lanes_.back(), duration);
    return static_cast<int>(lanes_.size()) - 1;
  }

  // Drops index k's claim and points it at the lane for `duration`. The
  // old lane's entries still fire; once it drains and no index points
  // at it, it is idle and the next new duration re-purposes it.
  void repurpose(int k, Time duration) {
    sim_.release_lane(*lanes_[k]);
    durations_[k] = duration;
    lanes_[k] = &sim_.acquire_lane(duration, &LaneRig::fire);
    note_duration(lanes_[k], duration);
  }

  // Lanes that have carried more than one duration.
  [[nodiscard]] std::size_t lanes_repurposed() const {
    std::size_t n = 0;
    for (const auto& [lane, seen] : durations_seen_) n += seen.size() > 1;
    return n;
  }

  std::uint64_t post(int k, const Action& action = nullptr) {
    const std::uint64_t label = post_on(kSimSide, k, action);
    post_on(kRefSide, k, action);
    return label;
  }
  std::uint64_t schedule_in(Time delay, const Action& action = nullptr) {
    const std::uint64_t label = schedule_in_on(kSimSide, delay, action);
    schedule_in_on(kRefSide, delay, action);
    return label;
  }
  void revoke(std::uint64_t label) {
    revoke_on(kSimSide, label);
    revoke_on(kRefSide, label);
  }

  // The one-sided halves, for actions (which run once per side). Both
  // sides number their labels in the same order.
  std::uint64_t post_on(Side side, int k, const Action& action = nullptr) {
    const std::uint64_t label = take_label(side, action);
    if (side == kSimSide) {
      handles_[label] = Handle{true, lanes_[k]->post(this, label), EventId{}};
    } else {
      ref_ids_[label] = ref_.schedule(
          ref_now_ + durations_[k], [this, label] { fired(kRefSide, label); });
      ref_lane_entries_[label] = RefLaneEntry{lanes_[k], ref_ids_[label]};
    }
    return label;
  }
  std::uint64_t schedule_in_on(Side side, Time delay,
                               const Action& action = nullptr) {
    const std::uint64_t label = take_label(side, action);
    if (side == kSimSide) {
      handles_[label] = Handle{
          false, LaneTicket{},
          sim_.schedule_in(delay, [this, label] { fired(kSimSide, label); })};
    } else {
      ref_ids_[label] = ref_.schedule(
          ref_now_ + delay, [this, label] { fired(kRefSide, label); });
    }
    return label;
  }
  void revoke_on(Side side, std::uint64_t label) {
    if (side == kRefSide) {
      ref_.cancel(ref_ids_.at(label));
      ref_lane_entries_.erase(label);
      return;
    }
    const Handle& h = handles_.at(label);
    if (h.on_lane) {
      h.ticket.lane->revoke(h.ticket);
    } else {
      sim_.cancel(h.id);
    }
  }

  void run_until(Time deadline) {
    sim_.run_until(deadline);
    while (ref_.size() != 0 && ref_.next_time() <= deadline) {
      PoppedEvent e;
      auto cb = ref_.pop(&e);
      ref_now_ = e.at;
      ref_digest_ = fnv1a_u64(
          fnv1a_u64(ref_digest_, static_cast<std::uint64_t>(e.at.as_nanos())),
          e.seq);
      cb();
    }
    if (deadline != Time::max() && ref_now_ < deadline) ref_now_ = deadline;
  }
  void run() { run_until(Time::max()); }

  // Labels handed out so far (the same on both sides between runs).
  [[nodiscard]] std::uint64_t labels() const { return next_label_[kSimSide]; }

  // Labels the Simulator fired, in order, and the clock at each.
  [[nodiscard]] const std::vector<std::uint64_t>& fired() const {
    return log_[kSimSide];
  }
  [[nodiscard]] const std::vector<Time>& fire_times() const {
    return sim_times_;
  }

  // Empty when both sides agree on everything observable so far.
  [[nodiscard]] std::string mismatch() const {
    if (log_[kSimSide] != log_[kRefSide]) return "fired labels differ";
    if (sim_.now() != ref_now_) {
      return "now " + sim_.now().to_string() + " vs " + ref_now_.to_string();
    }
    if (sim_.pending_events() != ref_.size()) {
      return "pending " + std::to_string(sim_.pending_events()) + " vs " +
             std::to_string(ref_.size());
    }
    if (sim_.pending_event_times(kTimes) != ref_.pending_times(kTimes)) {
      return "pending_event_times differ";
    }
    if (sim_.trace_digest() != ref_digest_) return "trace digest differs";
    return merge_mismatch();
  }

 private:
  static constexpr std::size_t kTimes = 16;

  // Empty when the Simulator's merge set holds exactly the lanes with
  // live() > 0, once each, under its head's key: the earliest (at, seq)
  // the reference still holds for that lane.
  [[nodiscard]] std::string merge_mismatch() const {
    using Key = std::pair<std::int64_t, std::uint64_t>;
    std::map<const Lane*, Key> heads;
    for (const auto& [label, entry] : ref_lane_entries_) {
      const Key key{entry.id.at_ns, entry.id.seq};
      const auto [it, fresh] = heads.emplace(entry.lane, key);
      if (!fresh) it->second = std::min(it->second, key);
    }
    for (const auto& [lane, seen] : durations_seen_) {
      if ((lane->live() > 0) != (heads.count(lane) == 1)) {
        return "live() " + std::to_string(lane->live()) +
               " disagrees with the reference";
      }
    }
    const std::vector<MergedLane> set = sim_.merge_set();
    if (sim_.lane_stats().merging != set.size()) {
      return "lane_stats().merging differs from the merge set's size";
    }
    if (set.size() != heads.size()) {
      return "merge set holds " + std::to_string(set.size()) + " lanes, " +
             std::to_string(heads.size()) + " have live entries";
    }
    for (const MergedLane& member : set) {
      const auto it = heads.find(member.lane);
      if (it == heads.end()) return "a lane is in the merge set twice";
      if (Key{member.at.as_nanos(), member.seq} != it->second) {
        return "a merge-set key is not its lane's head";
      }
      heads.erase(it);
    }
    return {};
  }

  struct RefLaneEntry {
    const Lane* lane = nullptr;
    test::ReferenceScheduler::Id id;
  };

  struct Handle {
    bool on_lane = false;
    LaneTicket ticket;
    EventId id;
  };

  static void fire(void* rig, std::uint64_t label) {
    static_cast<LaneRig*>(rig)->fired(kSimSide, label);
  }

  void fired(Side side, std::uint64_t label) {
    log_[side].push_back(label);
    if (side == kSimSide) sim_times_.push_back(sim_.now());
    if (side == kRefSide) ref_lane_entries_.erase(label);
    const auto it = actions_.find(label);
    if (it != actions_.end()) it->second(*this, side);
  }

  std::uint64_t take_label(Side side, const Action& action) {
    const std::uint64_t label = next_label_[side]++;
    if (action) actions_[label] = action;
    return label;
  }

  void note_duration(const Lane* lane, Time duration) {
    durations_seen_[lane].insert(duration.as_nanos());
  }

  Simulator sim_;
  test::ReferenceScheduler ref_;
  Time ref_now_;
  std::uint64_t ref_digest_ = kFnvOffsetBasis;
  std::vector<Lane*> lanes_;
  std::vector<Time> durations_;
  std::map<const Lane*, std::set<std::int64_t>> durations_seen_;
  std::array<std::uint64_t, 2> next_label_{};
  std::array<std::vector<std::uint64_t>, 2> log_;
  std::vector<Time> sim_times_;
  std::map<std::uint64_t, Action> actions_;
  std::map<std::uint64_t, Handle> handles_;
  std::map<std::uint64_t, test::ReferenceScheduler::Id> ref_ids_;
  // The reference's pending lane entries, by label.
  std::map<std::uint64_t, RefLaneEntry> ref_lane_entries_;
};

// A random post/revoke/schedule/cancel/run script over a wide lane
// table whose lanes keep changing duration, checked against the
// reference after every op. Twelve lanes are claimed at any time, from
// a pool of twenty durations, so the merge set holds more lanes than
// on any workload; re-pointing a claim leaves the old lane to drain, go
// idle (leaving the merge set) and be re-purposed mid-run.
std::string run_random_lane_script(std::uint64_t seed) {
  LaneRig rig;
  Rng rng(seed);
  constexpr int kClaimed = 12;
  constexpr int kDurations = 20;
  const auto duration = [](std::uint64_t i) {
    return Time::nanos(static_cast<std::int64_t>(i) * 1'700);
  };
  for (int k = 0; k < kClaimed; ++k) rig.add_lane(duration(k));
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.42) {
      rig.post(static_cast<int>(rng.uniform_int(kClaimed)));
    } else if (roll < 0.57) {
      rig.schedule_in(
          Time::micros(static_cast<std::int64_t>(rng.uniform_int(25))));
    } else if (roll < 0.74) {
      if (rig.labels() == 0) continue;
      rig.revoke(rng.uniform_int(rig.labels()));
    } else if (roll < 0.79) {
      rig.repurpose(static_cast<int>(rng.uniform_int(kClaimed)),
                    duration(rng.uniform_int(kDurations)));
    } else {
      const auto step = static_cast<std::int64_t>(rng.uniform_int(12));
      rig.run_until(rig.sim().now() + Time::micros(step));
    }
    std::string why = rig.mismatch();
    if (!why.empty()) return "op " + std::to_string(op) + ": " + why;
  }
  rig.run();
  std::string why = rig.mismatch();
  if (!why.empty()) return "after the final run: " + why;
  if (rig.sim().pending_events() != 0 ||
      rig.sim().lane_stats().most_live != 0) {
    return "a lane kept entries after draining";
  }
  if (rig.sim().lane_stats().allocated < kClaimed) return "too few lanes";
  if (rig.lanes_repurposed() == 0) return "no idle lane was re-purposed";
  return {};
}

TEST(Lane, RandomScriptsMatchReferenceScheduler) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = derive_seed(0x1a4e5ULL, trial);
    EXPECT_EQ(run_random_lane_script(seed), "") << "seed " << seed;
  }
}

// ====================================================================
// The run loop's lane merge (DESIGN.md §14.3): every lane that holds
// live entries keeps its head key in the Simulator's merge set, the run
// loop takes the earliest of those and the engine head, and a lane
// leaves the set when it empties.

TEST(SimulatorLanes, ManyLanesPostedOutOfOrderFireSortedByAtSeq) {
  LaneRig rig;
  constexpr int kLanes = 16;
  // Durations 1..16 ms, a permutation of them across the lane indices.
  for (int k = 0; k < kLanes; ++k) {
    rig.add_lane(Time::millis(1 + (k * 7) % kLanes));
  }
  // Three rounds a millisecond apart, each posting into every lane in a
  // shuffled order: heads arrive in no key order, and the rounds' fire
  // times collide across lanes, so seq decides many ties.
  std::vector<int> order(kLanes);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(12345);
  for (int round = 0; round < 3; ++round) {
    rig.run_until(Time::millis(round));
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle_rng.uniform_int(i + 1)]);
    }
    for (int k : order) rig.post(k);
    EXPECT_EQ(rig.mismatch(), "");
  }
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.fired().size(), 48u);
  EXPECT_TRUE(std::is_sorted(rig.fire_times().begin(), rig.fire_times().end()));
  EXPECT_EQ(rig.sim().now(), Time::millis(18));
}

TEST(SimulatorLanes, LanesMergeWithEngineEventsByAtSeq) {
  LaneRig rig;
  for (int k = 0; k < 5; ++k) rig.add_lane(Time::millis(5 - k));
  // Lane posts and engine schedules alternate on the one seq counter,
  // at colliding times.
  for (int i = 0; i < 64; ++i) {
    rig.post((i * 7) % 5);
    rig.schedule_in(Time::millis(1 + (i * 3) % 5));
  }
  EXPECT_EQ(rig.mismatch(), "");
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.fired().size(), 128u);
  EXPECT_TRUE(std::is_sorted(rig.fire_times().begin(), rig.fire_times().end()));
}

TEST(SimulatorLanes, HeadRevokeMovesTheLaneKeyLater) {
  LaneRig rig;
  const int slow = rig.add_lane(Time::millis(10));
  const int fast = rig.add_lane(Time::millis(7));
  const std::uint64_t a0 = rig.post(slow);  // 10 ms
  rig.run_until(Time::millis(1));
  const std::uint64_t a1 = rig.post(slow);  // 11 ms
  const std::uint64_t a2 = rig.post(slow);  // 11 ms, after a1
  rig.run_until(Time::millis(2));
  const std::uint64_t a3 = rig.post(slow);  // 12 ms
  rig.run_until(Time::millis(3));
  const std::uint64_t b0 = rig.post(fast);  // 10 ms, after a0
  rig.run_until(Time::millis(4));
  const std::uint64_t b1 = rig.post(fast);  // 11 ms, after a1 and a2
  // Revoking the slow lane's head moves its key from 10 to 11 ms, so
  // the fast lane's head leads.
  rig.revoke(a0);
  EXPECT_EQ(rig.sim().pending_event_times(2),
            (std::vector<Time>{Time::millis(10), Time::millis(11)}));
  rig.run_until(Time::millis(10));
  EXPECT_EQ(rig.fired(), (std::vector<std::uint64_t>{b0}));
  // A revoke behind the head leaves the key alone...
  rig.revoke(a2);
  EXPECT_EQ(rig.sim().pending_event_times(1),
            (std::vector<Time>{Time::millis(11)}));
  EXPECT_EQ(rig.mismatch(), "");
  // ...and revoking the head skips it and the tombstone behind it, to
  // 12 ms: b1 (11 ms) now comes first although a1 held a smaller seq.
  rig.revoke(a1);
  EXPECT_EQ(rig.sim().pending_event_times(4),
            (std::vector<Time>{Time::millis(11), Time::millis(12)}));
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.fired(), (std::vector<std::uint64_t>{b0, b1, a3}));
}

TEST(SimulatorLanes, PostAndRevokeFromInsideFire) {
  LaneRig rig;
  const int burst = rig.add_lane(Time::millis(2));
  const int other = rig.add_lane(Time::millis(3));
  const int quick = rig.add_lane(Time::micros(500));
  // A burst entry posts the next one into its own lane, which its fire
  // has just emptied: at 2, 4, 6 and 8 ms.
  std::array<int, 2> burst_left{3, 3};
  LaneRig::Action again;
  again = [&](LaneRig& r, Side side) {
    if (burst_left[side]-- > 0) r.post_on(side, burst, again);
  };
  rig.post(burst, again);
  // o1 revokes the next entry of its own lane (the head its fire just
  // uncovered) and posts into a shorter lane, ahead of every other head.
  std::uint64_t o2 = 0;
  rig.post(other, [&](LaneRig& r, Side side) {
    r.revoke_on(side, o2);
    r.post_on(side, quick);  // 3.5 ms
  });
  o2 = rig.post(other);
  rig.post(other);  // 3 ms, uncovered by o2's revoke
  // An engine event posts into two lanes; at 8 ms its post into `other`
  // precedes the burst's last entry, minted later at 6 ms.
  rig.schedule_in(Time::millis(5), [&](LaneRig& r, Side side) {
    r.post_on(side, quick);  // 5.5 ms
    r.post_on(side, other);  // 8 ms
  });
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  const std::vector<Time> expected = {
      Time::millis(2),  Time::millis(3), Time::millis(3),
      Time::micros(3500), Time::millis(4), Time::millis(5),
      Time::micros(5500), Time::millis(6), Time::millis(8),
      Time::millis(8)};
  EXPECT_EQ(rig.fire_times(), expected);
  EXPECT_EQ(std::count(rig.fired().begin(), rig.fired().end(), o2), 0);
  EXPECT_EQ(rig.sim().pending_events(), 0u);
}

TEST(SimulatorLanes, RevokeMidLaneAndFromInsideFire) {
  LaneRig rig;
  for (int k = 0; k < 10; ++k) rig.add_lane(Time::millis(1 + k));
  std::vector<std::uint64_t> labels;
  // The first entry to fire revokes the head of another lane and an
  // entry in the middle of its own.
  labels.push_back(rig.post(0, [&](LaneRig& r, Side side) {
    r.revoke_on(side, labels[5]);
    r.revoke_on(side, labels[90]);
  }));
  for (int i = 1; i < 100; ++i) labels.push_back(rig.post(i % 10));
  // Revoke from the middle of two lanes, once twice (a no-op).
  rig.revoke(labels[41]);
  rig.revoke(labels[41]);
  rig.revoke(labels[77]);
  EXPECT_EQ(rig.sim().pending_events(), 98u);
  EXPECT_EQ(rig.mismatch(), "");
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.fired().size(), 96u);
  for (int gone : {41, 77, 5, 90}) {
    EXPECT_EQ(
        std::count(rig.fired().begin(), rig.fired().end(), labels[gone]), 0)
        << gone;
  }
  EXPECT_TRUE(std::is_sorted(rig.fired().begin(), rig.fired().end(),
                             [](std::uint64_t a, std::uint64_t b) {
                               return a % 10 < b % 10;
                             }));
  EXPECT_EQ(rig.sim().pending_events(), 0u);
}

TEST(SimulatorLanes, RandomPostRevokeMatchesReferenceScheduler) {
  LaneRig rig;
  constexpr int kLanes = 24;
  for (int k = 0; k < kLanes; ++k) rig.add_lane(Time::micros(1 + (k * 5) % 37));
  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const int k = static_cast<int>(rng.uniform_int(kLanes));
    switch (rng.uniform_int(6)) {
      case 0:
      case 1:
        rig.post(k);
        break;
      case 2: {
        // An entry whose fire posts into another lane and revokes an
        // earlier label, or itself (a no-op once it went).
        const int into = static_cast<int>(rng.uniform_int(kLanes));
        const std::uint64_t victim = rng.uniform_int(rig.labels() + 1);
        rig.post(k, [into, victim](LaneRig& r, Side side) {
          r.post_on(side, into);
          r.revoke_on(side, victim);
        });
        break;
      }
      case 3:
        if (rig.labels() != 0) rig.revoke(rng.uniform_int(rig.labels()));
        break;
      case 4:
        rig.schedule_in(
            Time::micros(static_cast<std::int64_t>(rng.uniform_int(30))));
        break;
      case 5: {
        const auto step = static_cast<std::int64_t>(rng.uniform_int(8));
        rig.run_until(rig.sim().now() + Time::micros(step));
        break;
      }
    }
    ASSERT_EQ(rig.mismatch(), "") << "step " << step;
  }
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.sim().pending_events(), 0u);
}

TEST(SimulatorLanes, PostOntoNonEmptyLaneOnlyMovesPending) {
  LaneRig rig;
  for (int k = 0; k < 8; ++k) rig.add_lane(Time::millis(8 - k));
  std::vector<std::vector<std::uint64_t>> by_lane(8);
  for (int k = 0; k < 8; ++k) by_lane[k].push_back(rig.post(k));
  const std::vector<Time> heads = rig.sim().pending_event_times(8);
  // More posts onto every non-empty lane, at the same time: each lane's
  // head keeps its key, and only the pending count moves.
  std::size_t pending = 8;
  for (int k = 0; k < 8; ++k) {
    for (int extra = 0; extra <= k; ++extra) {
      by_lane[k].push_back(rig.post(k));
      EXPECT_EQ(rig.sim().pending_events(), ++pending);
      EXPECT_EQ(rig.sim().pending_event_times(1).front(), heads.front());
    }
  }
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  // Earliest lane first, each lane in post order.
  std::vector<std::uint64_t> expected;
  for (int k = 7; k >= 0; --k) {
    expected.insert(expected.end(), by_lane[k].begin(), by_lane[k].end());
  }
  EXPECT_EQ(rig.fired(), expected);
  EXPECT_EQ(rig.sim().pending_events(), 0u);
}

TEST(SimulatorLanes, EmptiedLaneRefillsAheadOfEveryOtherHead) {
  LaneRig rig;
  // Eleven lanes; the short one joins the merge set in its middle, so
  // emptying it moves the last member into its slot.
  constexpr int kShort = 5;
  for (int k = 0; k < 11; ++k) {
    rig.add_lane(k == kShort ? Time::micros(100) : Time::millis(10 + k));
  }
  std::uint64_t s1 = 0;  // 0.1 ms
  for (int k = 0; k < 11; ++k) {
    const std::uint64_t label = rig.post(k);
    if (k == kShort) s1 = label;
  }
  EXPECT_EQ(rig.sim().lane_stats().merging, 11u);
  rig.run_until(Time::millis(1));
  EXPECT_EQ(rig.fired(), (std::vector<std::uint64_t>{s1}));
  EXPECT_EQ(rig.sim().lane_stats().merging, 10u);
  EXPECT_EQ(rig.mismatch(), "");
  // Emptied by its fire, the lane refills with a key earlier than every
  // other head; emptied again by revokes, it refills once more.
  const std::uint64_t s2 = rig.post(kShort);  // 1.1 ms
  const std::uint64_t s3 = rig.post(kShort);  // 1.1 ms
  EXPECT_EQ(rig.sim().pending_event_times(1),
            (std::vector<Time>{Time::micros(1100)}));
  rig.revoke(s2);
  rig.revoke(s3);
  EXPECT_EQ(rig.sim().pending_event_times(1),
            (std::vector<Time>{Time::millis(10)}));
  rig.run_until(Time::millis(2));
  EXPECT_EQ(rig.fired().size(), 1u);
  const std::uint64_t s4 = rig.post(kShort);  // 2.1 ms
  // Lanes appended behind it grow the lane table and the merge set.
  for (int k = 0; k < 4; ++k) rig.post(rig.add_lane(Time::millis(30 + k)));
  EXPECT_EQ(rig.mismatch(), "");
  rig.run_until(Time::millis(3));
  EXPECT_EQ(rig.fired(), (std::vector<std::uint64_t>{s1, s4}));
  rig.run();
  EXPECT_EQ(rig.mismatch(), "");
  EXPECT_EQ(rig.fired().size(), 16u);
}

TEST(SimulatorLanes, PastScheduleAndNegativeLaneDurationThrowBadSchedule) {
  Simulator sim;
  Recorder rec{&sim, {}, {}};
  Lane& lane = sim.acquire_lane(Time::millis(20), &record);
  lane.post(&rec, 0);
  sim.schedule_at(Time::millis(10), [] {});
  sim.run_until(Time::millis(10));
  EXPECT_EQ(error_code([&] { sim.schedule_at(Time::millis(5), [] {}); }),
            SimErrc::kBadSchedule);
  EXPECT_EQ(error_code([&] { sim.schedule_in(Time::millis(-1), [] {}); }),
            SimErrc::kBadSchedule);
  EXPECT_EQ(error_code([&] {
              (void)sim.acquire_lane(Time::millis(-1), &record);
            }),
            SimErrc::kBadSchedule);
  // The rejected calls left the lane and the table as they were.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.pending_event_times(4), (std::vector<Time>{Time::millis(20)}));
  EXPECT_EQ(sim.lane_stats().allocated, 1u);
  sim.run();
  EXPECT_EQ(rec.args, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(SimulatorLanes, PendingEventsCountsEngineEventsPlusLiveLaneEntries) {
  LaneRig rig;
  for (int i = 0; i < 5; ++i) rig.schedule_in(Time::millis(1 + i));
  std::vector<std::vector<std::uint64_t>> entries(3);
  const std::size_t counts[] = {1, 4, 7};
  for (int k = 0; k < 3; ++k) {
    const int lane = rig.add_lane(Time::millis(10 + k));
    for (std::size_t n = 0; n < counts[k]; ++n) {
      entries[k].push_back(rig.post(lane));
    }
  }
  EXPECT_EQ(rig.sim().pending_events(), 5u + 1 + 4 + 7);
  rig.revoke(entries[1][0]);
  rig.revoke(entries[1][2]);
  EXPECT_EQ(rig.sim().pending_events(), 5u + 1 + 2 + 7);
  for (std::uint64_t label : entries[2]) rig.revoke(label);
  EXPECT_EQ(rig.sim().pending_events(), 5u + 1 + 2);
  rig.run_until(Time::millis(3));  // three engine events
  EXPECT_EQ(rig.sim().pending_events(), 2u + 1 + 2);
  rig.run_until(Time::millis(10));  // the rest, and lane 0's entry
  EXPECT_EQ(rig.sim().pending_events(), 2u);
  EXPECT_EQ(rig.mismatch(), "");
  rig.run();
  EXPECT_EQ(rig.sim().pending_events(), 0u);
  EXPECT_EQ(rig.fired().size(), 5u + 1 + 2);
  EXPECT_EQ(rig.mismatch(), "");
}

}  // namespace
}  // namespace slowcc::sim
