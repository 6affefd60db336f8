#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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
};

/// One pending sub-event of a batched drain chain (DESIGN.md §14). A
/// chain source — a sim::Lane fronting a fixed-delay FIFO of pending
/// events — keeps one of these armed while it holds entries instead of
/// scheduling an engine event per entry. The run loop merges the
/// chain into the engine's (at, seq) total order: when the chain is the
/// global minimum it advances the clock, counts the event, folds the
/// digest, and calls `fire(ctx)` directly — no engine storage, no
/// std::function, no engine pop. Invariants the source must keep:
///   - `seq` comes from Simulator::mint_event_seq() at exactly the point
///     a one-event-per-entry schedule would have called schedule_*() —
///     this is what keeps trace_digest() bit-identical to that schedule
///   - while armed, `at`/`seq`/`pending` change only through
///     Simulator::retime_chain (the heap keeps its own copy of
///     (at, seq) as the sort key, and `pending` is the chain's share
///     of pending_events()); re-timing re-mints the seq, exactly as a
///     cancel+reschedule would
///   - the chain is disarmed before `ctx` dies (Lanes die with their
///     Simulator; other sources disarm in their destructor)
struct ChainedEvent {
  static constexpr std::size_t kNotArmed = static_cast<std::size_t>(-1);

  Time at;
  std::uint64_t seq = 0;
  void (*fire)(void* ctx) = nullptr;
  void* ctx = nullptr;
  /// How many engine events this chain currently stands in for. A
  /// Lane sets it to its live count, so pending_events() — and with it
  /// the ResourceGovernor's event footprint and budget-abort points —
  /// stay identical to a schedule with one engine event per entry.
  std::uint64_t pending = 1;
  /// Index in the Simulator's chain heap; kNotArmed while disarmed.
  /// Owned by the Simulator.
  std::size_t heap_slot = kNotArmed;

  [[nodiscard]] bool armed() const noexcept { return heap_slot != kNotArmed; }
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

  /// Consume the next FIFO sequence number without storing an engine
  /// event. Batched drain chains mint their sub-event seqs here (see
  /// ChainedEvent above).
  [[nodiscard]] std::uint64_t mint_event_seq() noexcept {
    return queue_.mint_seq();
  }

  /// Register / remove a drain chain, O(log armed chains). The
  /// pointed-to event must stay valid while armed. Arming reads its
  /// `at`/`seq`/`pending` and validates at >= now(); double-arming
  /// throws SimError (kBadSchedule). disarm_chain is a no-op when not
  /// armed. Both may be called from inside any fire().
  void arm_chain(ChainedEvent* chain);
  void disarm_chain(ChainedEvent* chain) noexcept;

  /// Re-key an armed chain in place — the only way its `at`, `seq` or
  /// `pending` may change while armed (a source re-arming for its next
  /// packet from inside fire(), re-timing an in-flight packet, or
  /// growing its FIFO). An unchanged (at, seq) only updates `pending`
  /// and leaves the heap alone. Throws SimError (kBadSchedule) when the
  /// chain is not armed or `at` < now().
  void retime_chain(ChainedEvent* chain, Time at, std::uint64_t seq,
                    std::uint64_t pending) {
    if (!chain->armed() || at < now_) throw_bad_retime(chain, at);
    chain_pending_ = chain_pending_ - chain->pending + pending;
    chain->pending = pending;
    // A post onto a non-empty lane keeps the head's key: nothing in the
    // heap moves.
    if (at == chain->at && seq == chain->seq) return;
    rekey_chain(chain, at, seq);
  }

  /// The lane for events `duration` after their post that fire with
  /// `fire`, counting the caller as one more source pointing at it. An
  /// idle lane (no source, no entry) is re-purposed before a new one is
  /// created. Pair with release_lane.
  Lane& acquire_lane(Time duration, LaneFire fire);

  /// Drop one source's claim on `lane`. Its pending entries still fire;
  /// once it holds none and no source points at it, the lane is idle.
  void release_lane(Lane& lane) noexcept;

  /// Revoke every live lane entry posted with `ctx`, passing each one's
  /// `arg` to `on_revoke(ctx, arg)`; stops after `count` of them. For a
  /// source that dies with entries pending in shared lanes.
  void revoke_lane_entries(void* ctx, std::size_t count, LaneFire on_revoke);

  [[nodiscard]] LaneStats lane_stats() const noexcept;

  /// Run until the queue drains.
  void run();

  /// Run until the queue drains or the clock passes `deadline`.
  /// Events at exactly `deadline` are executed. After returning, the
  /// clock is at `deadline` (or at the last event if the queue drained
  /// earlier), so subsequent `run_until` calls continue seamlessly.
  void run_until(Time deadline);

  /// Number of events executed so far (for micro-benchmarks and tests).
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
  /// budget. Unlike a fault::Watchdog this needs no hook slot and is
  /// exact to the event, so it is the deterministic half of a trial
  /// deadline (the wall-clock half stays with the Watchdog).
  void set_event_budget(std::uint64_t max_events) noexcept {
    event_budget_ = max_events;
    event_budget_base_ = events_executed_;
  }

  [[nodiscard]] std::uint64_t event_budget() const noexcept {
    return event_budget_;
  }

  /// Live engine events plus armed drain-chain sub-events, so the count
  /// (and the governor's event footprint) matches the unbatched
  /// schedule one-for-one — each chain reports how many pending events
  /// it stands in for via ChainedEvent::pending.
  /// O(1): the chains' share is kept as a running sum.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size() + static_cast<std::size_t>(chain_pending_);
  }

  /// Drain chains armed right now (diagnostics and tests).
  [[nodiscard]] std::size_t armed_chains() const noexcept {
    return chains_.size();
  }

  /// Timestamps of the earliest pending events (diagnostics), merged
  /// across the engine, every live lane entry and any other armed
  /// drain chain.
  [[nodiscard]] std::vector<Time> pending_event_times(
      std::size_t max_entries) const;

  /// Install a hook invoked after every `every_events` executed events,
  /// regardless of whether simulated time advances — this is what lets
  /// a `fault::Watchdog` catch livelocks that sim-time timers cannot
  /// see. One hook slot exists; installing over an occupied slot
  /// throws `SimError` (kBadConfig). `every_events` must be >= 1.
  void set_event_hook(std::uint64_t every_events,
                      std::function<void()> hook);

  /// Remove the installed hook; no-op when none is installed.
  void clear_event_hook() noexcept {
    hook_every_ = 0;
    hook_countdown_ = 0;
    hook_ = nullptr;
  }

  /// Whether the single event-hook slot is occupied.
  [[nodiscard]] bool has_event_hook() const noexcept {
    return hook_every_ != 0;
  }

  /// Register an observer invoked (on this thread only) at the end of
  /// every Simulator constructor. This is how an orchestration layer
  /// imposes per-trial deadlines on simulations built deep inside
  /// scenario drivers it never sees: the observer can set an event
  /// budget and attach a fault::Watchdog to each new instance. One
  /// slot per thread; registering over an occupied slot throws
  /// SimError (kBadConfig). Passing nullptr clears the slot.
  static void set_thread_construct_observer(ConstructObserver observer);

  /// Keep `guard` alive for this Simulator's lifetime; guards are
  /// destroyed first in ~Simulator, while every other member is still
  /// valid. Lets a construct observer hang a Watchdog off the instance.
  void attach_guard(std::shared_ptr<void> guard) {
    guards_.push_back(std::move(guard));
  }

  /// Per-simulation resource accountant (see sim/resource.hpp). Always
  /// present but disarmed by default; `run*` only polls it when a
  /// budget is armed, so ungoverned simulations pay one branch per
  /// event. `net::Link` attaches its queue's counter hooks here, and
  /// `fault::ScopedTrialDeadline` arms per-trial byte budgets through
  /// its construct observer.
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept {
    return governor_;
  }

  /// Next unique packet id for this simulation. Lives on the Simulator
  /// (not a global) so concurrent simulations on different threads
  /// never share a counter and every trial's uid sequence is
  /// deterministic in isolation.
  [[nodiscard]] std::uint64_t next_packet_uid() noexcept {
    return next_packet_uid_++;
  }

 private:
  // One chain-heap entry: the chain's (at, seq) key inline, so sifts
  // compare contiguous memory instead of reading each chain's source.
  struct ChainSlot {
    std::int64_t at_ns;
    std::uint64_t seq;
    ChainedEvent* chain;
  };
  // One branch-free 128-bit compare: armed times are never negative
  // (they are >= now() >= 0), so the unsigned (at, seq) concatenation
  // orders exactly like the pair.
  [[nodiscard]] static bool slot_before(const ChainSlot& a,
                                        const ChainSlot& b) noexcept {
    using Key = unsigned __int128;
    const Key ka = Key{static_cast<std::uint64_t>(a.at_ns)} << 64 | a.seq;
    const Key kb = Key{static_cast<std::uint64_t>(b.at_ns)} << 64 | b.seq;
    return ka < kb;
  }
  // retime_chain's out-of-line halves: the heap move for a changed key,
  // and the kBadSchedule throw.
  void rekey_chain(ChainedEvent* chain, Time at, std::uint64_t seq) noexcept;
  [[noreturn]] void throw_bad_retime(const ChainedEvent* chain, Time at) const;
  // Move `entry` from the hole at `slot` toward the root / the leaves
  // until the heap order holds, then store it there.
  void sift_up(std::size_t slot, ChainSlot entry) noexcept;
  void sift_down(std::size_t slot, ChainSlot entry) noexcept;

  EventQueue queue_;
  Time now_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_digest_ = kFnvOffsetBasis;
  std::uint64_t next_packet_uid_ = 1;
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
  // Armed drain chains as a binary min-heap on the inline (at, seq)
  // keys; each chain records its own slot, so arm, disarm and re-key
  // are O(log n) and the run loop reads the minimum at front(). Every
  // link shares one lane per transmit or propagation duration, so the
  // heap holds a handful of lanes (4 at most in a 64-flow dumbbell).
  std::vector<ChainSlot> chains_;
  // Sum of the armed chains' `pending`, so pending_events() — polled
  // after every event in governed trials — needs no scan.
  std::uint64_t chain_pending_ = 0;
  // Every lane ever created, in use or idle; unique_ptr keeps each
  // lane (and its armed ChainedEvent) at a stable address.
  std::vector<std::unique_ptr<Lane>> lanes_;
  ResourceGovernor governor_;
  // Declared last: guards (e.g. a Watchdog holding our hook slot) are
  // destroyed first, while the members they release are still alive.
  std::vector<std::shared_ptr<void>> guards_;
};

}  // namespace slowcc::sim
