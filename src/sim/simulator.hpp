#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

// slowcc-lint: allow-file(no-std-function-hot-path) observer/hook slots
// are per-Simulator control-plane state, not per-event; the per-event
// callbacks live in the pooled engine entries behind EventQueue.

namespace slowcc::sim {

class Lane;

/// Callback of a Lane entry: the `ctx` and `arg` it was posted with.
using LaneFire = void (*)(void* ctx, std::uint64_t arg);

/// Shape of the Simulator's lane table (diagnostics and tests).
struct LaneStats {
  std::size_t in_use = 0;     // lanes a source points at or that hold entries
  std::size_t allocated = 0;  // lanes ever created (in use + idle)
  std::size_t most_live = 0;  // the largest live count of any one lane
  std::size_t merging = 0;    // lanes in the run loop's merge set
};

/// One member of the run loop's merge set: a lane that holds live
/// entries and the (at, seq) key it competes under, which must be its
/// head's (diagnostics and tests).
struct MergedLane {
  const Lane* lane = nullptr;
  Time at;
  std::uint64_t seq = 0;
};

/// Discrete-event simulation driver.
///
/// A `Simulator` owns the event queue and the simulation clock. All
/// simulation components (links, agents, monitors) hold a reference to
/// one `Simulator` and schedule their work through it. The clock only
/// advances when `run*` pops events, so callbacks observe a consistent
/// `now()`.
class Simulator {
 public:
  /// Observer invoked at the end of every Simulator constructor on the
  /// thread it was registered on (see `set_thread_construct_observer`).
  using ConstructObserver = std::function<void(Simulator&)>;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `cb` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, EventQueue::Callback cb);

  /// Schedule `cb` to run `delay` from now.
  EventId schedule_in(Time delay, EventQueue::Callback cb);

  /// Cancel a pending event; no-op if already fired or cancelled.
  void cancel(EventId id) { queue_.cancel(id); }

  /// Move pending event `id` to absolute time `at` (must be >= now()),
  /// keeping its callback and id. It fires exactly where a cancel plus
  /// a fresh schedule_at(at, same callback) would. A past `at` throws
  /// SimError (kBadSchedule) after cancelling the event, as that pair
  /// would leave it; an id that names no pending event throws
  /// kInvariantViolation and changes nothing.
  void reschedule(EventId id, Time at) {
    if (at < now_) {
      queue_.cancel(id);
      throw_past("reschedule", at);
    }
    if (!queue_.reschedule(id, at)) throw_not_pending();
  }

  /// When pending event `id` will fire; nullopt once it fired or was
  /// cancelled. Diagnostics: it lets an audit compare a timer's own
  /// deadline with the engine's.
  [[nodiscard]] std::optional<Time> pending_time(EventId id) const noexcept {
    return queue_.pending_time(id);
  }

  /// Consume the next FIFO sequence number without storing an engine
  /// event. Lanes mint their entries' seqs here, so lane entries and
  /// engine events share one (at, seq) total order.
  [[nodiscard]] std::uint64_t mint_event_seq() noexcept {
    return queue_.mint_seq();
  }

  /// The lane for events `duration` after their post that fire with
  /// `fire`, counting the caller as one more source pointing at it. An
  /// idle lane (no source, no entry) is re-purposed before a new one is
  /// created. Pair with release_lane. Throws SimError (kBadSchedule) for
  /// a null `fire` or a negative `duration`.
  Lane& acquire_lane(Time duration, LaneFire fire);

  /// Drop one source's claim on `lane`. Its pending entries still fire;
  /// once it holds none and no source points at it, the lane is idle.
  void release_lane(Lane& lane) noexcept;

  /// Revoke every live lane entry posted with `ctx`, passing each one's
  /// `arg` to `on_revoke(ctx, arg)`; stops after `count` of them. For a
  /// source that dies with entries pending in shared lanes.
  void revoke_lane_entries(void* ctx, std::size_t count, LaneFire on_revoke);

  [[nodiscard]] LaneStats lane_stats() const noexcept;

  /// The run loop's merge set, in slot order: every lane that holds
  /// live entries, once each, under the key the merge compares.
  [[nodiscard]] std::vector<MergedLane> merge_set() const;

  /// Run until the queue drains.
  void run();

  /// Run until the queue drains or the clock passes `deadline`.
  /// Events at exactly `deadline` are executed. After returning, the
  /// clock is at `deadline` (or at the last event if the queue drained
  /// earlier), so subsequent `run_until` calls continue seamlessly.
  void run_until(Time deadline);

  /// Number of events executed so far by this Simulator (spec run
  /// reports and tests read it).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// FNV-1a digest over the (fire-time, seq) pairs of every event
  /// executed so far. The golden-trace tests pin scenario digests, so
  /// any change to event ordering anywhere in the stack shows here.
  [[nodiscard]] std::uint64_t trace_digest() const noexcept {
    return trace_digest_;
  }

  /// Events executed by every Simulator on the calling thread since
  /// thread start — lets a trial harness meter a simulation's cost
  /// without reaching inside the scenario driver that owns it.
  [[nodiscard]] static std::uint64_t thread_events_executed() noexcept;

  /// Hard per-simulation event budget: once `max_events` further events
  /// have executed, `run*` throws SimError (kDeadlineExceeded). The
  /// count starts at the call (re-arming resets it); 0 removes the
  /// budget. It needs no hook slot and is exact to the event, so it is
  /// the deterministic trial deadline.
  void set_event_budget(std::uint64_t max_events) noexcept {
    event_budget_ = max_events;
    event_budget_base_ = events_executed_;
  }

  [[nodiscard]] std::uint64_t event_budget() const noexcept {
    return event_budget_;
  }

  /// Live engine events plus live lane entries, so the count (and the
  /// governor's event footprint) matches a schedule with one engine
  /// event per entry one-for-one. O(1): the lanes' share is kept as a
  /// running sum.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size() + static_cast<std::size_t>(lane_pending_);
  }

  /// Timestamps of the earliest pending events (diagnostics), merged
  /// across the engine and every live lane entry.
  [[nodiscard]] std::vector<Time> pending_event_times(
      std::size_t max_entries) const;

  /// Install a hook invoked after every `every_events` executed events,
  /// regardless of whether simulated time advances — this is what lets
  /// `exp::ParallelRunner`'s wall-clock check catch livelocks that
  /// sim-time timers cannot see. One hook slot exists; installing over
  /// an occupied slot throws `SimError` (kBadConfig). `every_events`
  /// must be >= 1.
  void set_event_hook(std::uint64_t every_events,
                      std::function<void()> hook);

  /// Remove the installed hook; no-op when none is installed.
  void clear_event_hook() noexcept {
    hook_every_ = 0;
    hook_countdown_ = 0;
    hook_ = nullptr;
  }

  /// Register an observer invoked (on this thread only) at the end of
  /// every Simulator constructor. This is how an orchestration layer
  /// imposes per-trial deadlines on simulations built deep inside
  /// scenario drivers it never sees: `exp::ParallelRunner`'s observer
  /// sets each new instance's budgets and wall-clock check. One
  /// slot per thread; registering over an occupied slot throws
  /// SimError (kBadConfig). Passing nullptr clears the slot.
  static void set_thread_construct_observer(ConstructObserver observer);

  /// Keep `guard` alive for this Simulator's lifetime; guards are
  /// destroyed first in ~Simulator, while every other member is still
  /// valid. Lets a component tie its own teardown to the instance
  /// (`net::PacketPool::of`).
  void attach_guard(std::shared_ptr<void> guard) {
    guards_.push_back(std::move(guard));
  }

  /// Per-simulation resource accountant (see sim/resource.hpp). Always
  /// present but disarmed by default; `run*` only polls it when a
  /// budget is armed, so ungoverned simulations pay one branch per
  /// event. `net::PacketPool::of` registers the pool's packet counters
  /// here, and `exp::ParallelRunner` arms per-trial byte budgets
  /// through its construct observer.
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept {
    return governor_;
  }

 private:
  friend class Lane;

  // A lane head's (at, seq) as one unsigned 128-bit key: lane times are
  // never negative (they are >= now() >= 0), so the concatenation
  // orders exactly like the pair, in one branch-free compare.
  using LaneKey = unsigned __int128;
  // Later than every real key (no seq is all ones): the merge's
  // starting minimum, which only an empty merge set leaves in place.
  static constexpr LaneKey kNoLaneKey = ~LaneKey{0};
  [[nodiscard]] static LaneKey lane_key(std::int64_t at_ns,
                                        std::uint64_t seq) noexcept {
    return LaneKey{static_cast<std::uint64_t>(at_ns)} << 64 | seq;
  }

  [[noreturn]] void throw_past(const char* op, Time at) const;
  [[noreturn]] static void throw_not_pending();

  EventQueue queue_;
  Time now_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_digest_ = kFnvOffsetBasis;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  std::uint64_t event_budget_base_ = 0;
  std::uint64_t hook_every_ = 0;
  // Events left until the hook's next absolute multiple of hook_every_
  // (0 exactly when no hook is installed).
  std::uint64_t hook_countdown_ = 0;
  // True while run_until may be inside an event callback, whose own
  // hook check is still to come (set_event_hook counts it).
  bool dispatching_ = false;
  std::function<void()> hook_;
  // Every lane ever created, in use or idle; unique_ptr keeps each
  // lane at a stable address.
  std::vector<std::unique_ptr<Lane>> lanes_;
  // The merge set: for slot i < merging_, merge_keys_[i] is the head
  // key of merge_lanes_[i], a lane that holds live entries, and that
  // lane's merge_slot_ is i. A lane joins when its live count leaves 0
  // and leaves (the last member taking its slot) when it returns to 0,
  // so the run loop's scan reads only lanes that can fire, not the
  // idle and drained ones. Both arrays are as long as lanes_, so
  // joining never allocates.
  std::vector<LaneKey> merge_keys_;
  std::vector<Lane*> merge_lanes_;
  std::size_t merging_ = 0;
  // Sum of the lanes' live counts, so pending_events() — polled after
  // every event in governed trials — needs no scan.
  std::uint64_t lane_pending_ = 0;
  ResourceGovernor governor_;
  // Declared last: guards (e.g. the packet pool's) are destroyed first,
  // while the members they release are still alive.
  std::vector<std::shared_ptr<void>> guards_;
};

}  // namespace slowcc::sim
