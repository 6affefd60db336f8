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

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  if (at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_at: time in the past (" + at.to_string() + " < " +
                       now_.to_string() + ")");
  }
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

void Simulator::arm_chain(ChainedEvent* chain) {
  if (chain == nullptr || chain->fire == nullptr) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: null chain or fire callback");
  }
  if (chain->at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: time in the past (" + chain->at.to_string() +
                       " < " + now_.to_string() + ")");
  }
  if (chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: chain already armed (re-key it with "
                   "retime_chain instead)");
  }
  // One chain per lane: the heap tops out at the number of distinct
  // transmit and propagation durations, not at the packet count.
  chains_.push_back(ChainSlot{});  // slowcc-lint: allow(no-hot-path-alloc) bounded by the lane count, not packet count
  chain_pending_ += chain->pending;
  sift_up(chains_.size() - 1,
          ChainSlot{chain->at.as_nanos(), chain->seq, chain});
}

void Simulator::disarm_chain(ChainedEvent* chain) noexcept {
  if (!chain->armed()) return;
  const std::size_t slot = chain->heap_slot;
  assert(slot < chains_.size() && chains_[slot].chain == chain);
  chain->heap_slot = ChainedEvent::kNotArmed;
  chain_pending_ -= chain->pending;
  const ChainSlot last = chains_.back();
  chains_.pop_back();
  if (last.chain == chain) return;
  // Refill the hole with the last leaf. It belongs either above the
  // hole (earlier than the hole's parent, possible when it came from
  // another subtree) or at or below it, never both: one sift.
  if (slot > 0 && slot_before(last, chains_[(slot - 1) / 2])) {
    sift_up(slot, last);
  } else {
    sift_down(slot, last);
  }
}

void Simulator::throw_bad_retime(const ChainedEvent* chain, Time at) const {
  if (!chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "retime_chain: chain not armed (arm_chain first)");
  }
  throw SimError(SimErrc::kBadSchedule, "Simulator",
                 "retime_chain: time in the past (" + at.to_string() + " < " +
                     now_.to_string() + ")");
}

void Simulator::rekey_chain(ChainedEvent* chain, Time at,
                            std::uint64_t seq) noexcept {
  const ChainSlot old_key{chain->at.as_nanos(), chain->seq, chain};
  const ChainSlot new_key{at.as_nanos(), seq, chain};
  chain->at = at;
  chain->seq = seq;
  // The key moved one way, so the chain moves that way only.
  if (slot_before(new_key, old_key)) {
    sift_up(chain->heap_slot, new_key);
  } else {
    sift_down(chain->heap_slot, new_key);
  }
}

void Simulator::sift_up(std::size_t slot, ChainSlot entry) noexcept {
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!slot_before(entry, chains_[parent])) break;
    chains_[slot] = chains_[parent];
    chains_[slot].chain->heap_slot = slot;
    slot = parent;
  }
  chains_[slot] = entry;
  entry.chain->heap_slot = slot;
}

void Simulator::sift_down(std::size_t slot, ChainSlot entry) noexcept {
  const std::size_t n = chains_.size();
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    // Branch-free pick of the earlier child.
    if (child + 1 < n) {
      child += static_cast<std::size_t>(
          slot_before(chains_[child + 1], chains_[child]));
    }
    if (!slot_before(chains_[child], entry)) break;
    chains_[slot] = chains_[child];
    chains_[slot].chain->heap_slot = slot;
    slot = child;
  }
  chains_[slot] = entry;
  entry.chain->heap_slot = slot;
}

Lane& Simulator::acquire_lane(Time duration, LaneFire fire) {
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
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->in_use()) ++stats.in_use;
    stats.most_live = std::max(stats.most_live, lane->live());
  }
  return stats;
}

std::vector<Time> Simulator::pending_event_times(
    std::size_t max_entries) const {
  std::vector<Time> times = queue_.pending_times(max_entries);
  if (!chains_.empty()) {
    // A lane's chain stands in for every live entry of the lane, in
    // order; any other chain stands in for its own key.
    for (const ChainSlot& c : chains_) {
      if (c.chain->fire == &Lane::fire_thunk) {
        static_cast<const Lane*>(c.chain->ctx)
            ->append_times(max_entries, &times);
      } else {
        times.push_back(Time::nanos(c.at_ns));
      }
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
    // the chain heap's top. Seqs are minted from one per-queue
    // counter, so the pair is a strict total order and the executed
    // stream — what trace_digest() folds — is independent of whether a
    // departure runs as an engine event or a chained sub-event.
    bool use_chain;
    PoppedEvent head;
    if (!queue_.empty()) {
      head = queue_.peek();
      use_chain = !chains_.empty() &&
                  slot_before(chains_.front(),
                              ChainSlot{head.at.as_nanos(), head.seq, nullptr});
    } else if (!chains_.empty()) {
      use_chain = true;
    } else {
      break;
    }
    if (use_chain) {
      head = PoppedEvent{Time::nanos(chains_.front().at_ns),
                         chains_.front().seq};
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
    if (use_chain) {
      // fire() may re-key the chain in place (next packet of the burst)
      // or disarm it (queue drained / link down).
      ChainedEvent* const chain = chains_.front().chain;
      chain->fire(chain->ctx);
    } else {
      // The engine head was just peeked, so this pops exactly it.
      auto cb = queue_.pop(nullptr);
      cb();
    }
    // Poll after the callback so events and packets it just created are
    // charged to it. pending_events() counts live engine events plus
    // the events armed chains stand in for — logical state, identical
    // to a schedule with one engine event per entry.
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
