#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "sim/error.hpp"
#include "sim/lane.hpp"

namespace slowcc::sim {
namespace {

// Per-thread state: the construct observer slot and the cumulative
// event counter. thread_local keeps concurrent sweep workers fully
// independent — one worker's trial deadline never leaks into another.
thread_local Simulator::ConstructObserver t_construct_observer;
thread_local std::uint64_t t_events_executed = 0;

}  // namespace

Simulator::Simulator() {
  if (t_construct_observer) {
    // Swap the slot out while the observer runs so an observer that
    // constructs helper Simulators cannot recurse into itself.
    ConstructObserver observer;
    observer.swap(t_construct_observer);
    try {
      observer(*this);
    } catch (...) {
      observer.swap(t_construct_observer);
      throw;
    }
    observer.swap(t_construct_observer);
  }
}

Simulator::~Simulator() = default;

std::uint64_t Simulator::thread_events_executed() noexcept {
  return t_events_executed;
}

void Simulator::set_thread_construct_observer(ConstructObserver observer) {
  if (observer && t_construct_observer) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_thread_construct_observer: slot already occupied "
                   "on this thread (clear it with nullptr first)");
  }
  t_construct_observer = std::move(observer);
}

void Simulator::throw_past(const char* op, Time at) const {
  throw SimError(SimErrc::kBadSchedule, "Simulator",
                 std::string(op) + ": time in the past (" + at.to_string() +
                     " < " + now_.to_string() + ")");
}

void Simulator::throw_not_pending() {
  throw SimError(SimErrc::kInvariantViolation, "Simulator",
                 "reschedule: the id names no pending event");
}

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  if (at < now_) throw_past("schedule_at", at);
  return queue_.schedule(at, std::move(cb));
}

EventId Simulator::schedule_in(Time delay, EventQueue::Callback cb) {
  if (delay.is_negative()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_in: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(cb));
}

void Simulator::set_event_hook(std::uint64_t every_events,
                               EventQueue::Callback hook) {
  if (every_events == 0 || hook == nullptr) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: need every_events >= 1 and a callable");
  }
  if (hook_every_ != 0) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: hook slot already occupied "
                   "(clear_event_hook first)");
  }
  hook_every_ = every_events;
  // Fire on absolute multiples of the period, however many events ran
  // before the hook was installed. From inside an event callback that
  // event's own check is still to come, so it counts as not yet done.
  const std::uint64_t checked = events_executed_ - (dispatching_ ? 1 : 0);
  hook_countdown_ = every_events - checked % every_events;
  hook_ = std::move(hook);
}

Lane& Simulator::acquire_lane(Time duration, LaneFire fire) {
  if (fire == nullptr || duration.is_negative()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "acquire_lane: need a fire callback and a duration >= 0 "
                   "(got " + duration.to_string() + ")");
  }
  Lane* idle = nullptr;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (!lane->in_use()) {
      if (idle == nullptr) idle = lane.get();
    } else if (lane->duration_ == duration && lane->fire_ == fire) {
      ++lane->refs_;
      return *lane;
    }
  }
  if (idle == nullptr) {
    // Created on a link's first post with a new duration; idle lanes
    // are re-purposed first, so the table tops out at the number of
    // durations in use at once.
    // slowcc-lint: allow(no-hot-path-alloc) one lane per distinct duration in use, re-purposed when idle
    lanes_.push_back(std::unique_ptr<Lane>(new Lane(*this)));
    // The merge set holds at most every lane: sized here, it never
    // grows when a lane joins it.
    // slowcc-lint: allow(no-hot-path-alloc) grows with the lane table above
    merge_keys_.resize(lanes_.size());
    // slowcc-lint: allow(no-hot-path-alloc) grows with the lane table above
    merge_lanes_.resize(lanes_.size());
    idle = lanes_.back().get();
  }
  idle->duration_ = duration;
  idle->fire_ = fire;
  idle->refs_ = 1;
  return *idle;
}

void Simulator::release_lane(Lane& lane) noexcept {
  assert(lane.refs_ != 0);
  --lane.refs_;
}

void Simulator::revoke_lane_entries(void* ctx, std::size_t count,
                                    LaneFire on_revoke) {
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    for (std::uint64_t pos = lane->head_; pos != lane->tail_ && count != 0;
         ++pos) {
      const Lane::Entry entry = lane->at_pos(pos);
      if (entry.ctx != ctx) continue;
      lane->revoke_pos(pos);
      --count;
      on_revoke(ctx, entry.arg);
    }
  }
}

LaneStats Simulator::lane_stats() const noexcept {
  LaneStats stats;
  stats.allocated = lanes_.size();
  stats.merging = merging_;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->in_use()) ++stats.in_use;
    stats.most_live = std::max(stats.most_live, lane->live());
  }
  return stats;
}

std::vector<MergedLane> Simulator::merge_set() const {
  std::vector<MergedLane> set;
  set.reserve(merging_);
  for (std::size_t i = 0; i < merging_; ++i) {
    set.push_back(MergedLane{
        merge_lanes_[i],
        Time::nanos(static_cast<std::int64_t>(merge_keys_[i] >> 64)),
        static_cast<std::uint64_t>(merge_keys_[i])});
  }
  return set;
}

std::vector<Time> Simulator::pending_event_times(
    std::size_t max_entries) const {
  std::vector<Time> times = queue_.pending_times(max_entries);
  if (lane_pending_ != 0) {
    // Each lane is in time order, so its first max_entries live entries
    // are all it can contribute.
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      lane->append_times(max_entries, &times);
    }
    std::sort(times.begin(), times.end());
    if (times.size() > max_entries) times.resize(max_entries);
  }
  return times;
}

void Simulator::run() { run_until(Time::max()); }

void Simulator::run_until(Time deadline) {
  // Sets dispatching_ for the loop and restores it on every exit,
  // exceptions included.
  struct Dispatching {
    bool& flag;
    bool saved;
    explicit Dispatching(bool& f) : flag(f), saved(f) { flag = true; }
    ~Dispatching() { flag = saved; }
    Dispatching(const Dispatching&) = delete;
    Dispatching& operator=(const Dispatching&) = delete;
  } dispatching(dispatching_);
  for (;;) {
    // Pick the global minimum by (at, seq) between the engine head and
    // the lane heads. Seqs are minted from one per-queue counter, so
    // the pair is a strict total order and the executed stream — what
    // trace_digest() folds — does not depend on whether an event rides
    // a lane or the engine. Each lane is sorted, so its head is its
    // minimum: a branch-free scan of the merge set's head keys finds the
    // earliest lane (empty lanes are not in the set). The set is re-read
    // every event, since a fire may fill, empty or create a lane.
    const LaneKey* const keys = merge_keys_.data();
    const std::size_t merging = merging_;
    LaneKey next = kNoLaneKey;
    std::size_t slot = 0;
    for (std::size_t i = 0; i < merging; ++i) {
      const bool earlier = keys[i] < next;
      next = earlier ? keys[i] : next;
      slot = earlier ? i : slot;
    }
    PoppedEvent head;
    bool use_lane = true;
    if (!queue_.empty()) {
      head = queue_.peek();
      const LaneKey engine = lane_key(head.at.as_nanos(), head.seq);
      use_lane = next < engine;
      next = use_lane ? next : engine;
    } else if (merging == 0) {
      break;
    }
    if (use_lane) {
      head = PoppedEvent{Time::nanos(static_cast<std::int64_t>(next >> 64)),
                         static_cast<std::uint64_t>(next)};
    }
    if (head.at > deadline) break;
    if (event_budget_ != 0 &&
        events_executed_ - event_budget_base_ >= event_budget_) {
      throw SimError(
          SimErrc::kDeadlineExceeded, "Simulator",
          "event budget exhausted (" + std::to_string(event_budget_) +
              " events since armed; clock " + now_.to_string() + ", " +
              std::to_string(pending_events()) + " pending)");
    }
    assert(head.at >= now_);
    now_ = head.at;
    ++events_executed_;
    ++t_events_executed;
    trace_digest_ = fnv1a_u64(
        fnv1a_u64(trace_digest_, static_cast<std::uint64_t>(head.at.as_nanos())),
        head.seq);
    if (use_lane) {
      // The lane pops its head and settles its merge slot before the
      // callback, which may post into or revoke from any lane.
      merge_lanes_[slot]->fire_head();
    } else {
      // The engine head was just peeked, so this pops exactly it.
      auto cb = queue_.pop(nullptr);
      cb();
    }
    // Poll after the callback so events and packets it just created are
    // charged to it. pending_events() counts live engine events plus
    // live lane entries — logical state, identical to a schedule with
    // one engine event per entry.
    if (governor_.armed()) governor_.poll(pending_events());
    if (hook_countdown_ != 0 && --hook_countdown_ == 0) {
      // Re-arm before the call, so a hook that throws, clears itself or
      // re-installs leaves a consistent slot behind.
      hook_countdown_ = hook_every_;
      dispatching_ = false;
      hook_();
      dispatching_ = true;
    }
  }
  if (deadline != Time::max() && now_ < deadline) now_ = deadline;
}

}  // namespace slowcc::sim
