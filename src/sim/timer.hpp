#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"

namespace slowcc::sim {

/// A restartable one-shot timer.
///
/// Wraps the schedule/cancel dance that transport agents perform
/// constantly (retransmit timers, send timers, feedback timers). The
/// timer owns at most one pending event. Re-arming a pending timer
/// moves that event in place (Simulator::reschedule): it fires exactly
/// where a cancel plus a fresh schedule would, behind equal-time peers,
/// but no callback is rebuilt. Destroying the timer cancels any pending
/// event, so a timer member can never fire into a destroyed agent.
class Timer {
 public:
  // slowcc-lint: allow(no-std-function-hot-path) installed once per Timer; re-arms move only the EventId
  Timer(Simulator& sim, std::function<void()> on_fire)
      : sim_(&sim), on_fire_(std::move(on_fire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// (Re)arm the timer to fire `delay` from now. A negative delay
  /// throws SimError (kBadSchedule) and leaves the timer idle.
  void schedule_in(Time delay) { schedule_at(sim_->now() + delay); }

  /// (Re)arm the timer to fire at absolute time `at`. A past `at`
  /// throws SimError (kBadSchedule) and leaves the timer idle.
  void schedule_at(Time at) {
    deadline_ = at;
    if (!id_.valid()) {
      id_ = sim_->schedule_at(at, [this] {
        id_ = EventId{};
        on_fire_();
      });
      return;
    }
    // A valid id_ always names the pending event (the fire closure
    // clears it before on_fire_), so the move cannot miss. It is
    // cleared first: a throwing move has cancelled the event.
    const EventId id = std::exchange(id_, EventId{});
    sim_->reschedule(id, at);
    id_ = id;
  }

  /// Disarm; no-op when idle.
  void cancel() {
    if (id_.valid()) {
      sim_->cancel(id_);
      id_ = EventId{};
    }
  }

  [[nodiscard]] bool pending() const noexcept { return id_.valid(); }

  /// When the timer will fire. Meaningful only while `pending()`; a
  /// pending deadline in the past means the engine lost an event —
  /// the `fault::InvariantAuditor` checks exactly this.
  [[nodiscard]] Time deadline() const noexcept { return deadline_; }

  /// When the engine will fire this timer's event; nullopt while idle.
  /// A pending timer whose engine time differs from deadline() was
  /// re-armed without its event moving — the auditor checks this too.
  [[nodiscard]] std::optional<Time> engine_time() const noexcept {
    return sim_->pending_time(id_);
  }

 private:
  Simulator* sim_;
  // slowcc-lint: allow(no-std-function-hot-path) one callable per Timer, set at construction
  std::function<void()> on_fire_;
  EventId id_;
  Time deadline_;
};

}  // namespace slowcc::sim
