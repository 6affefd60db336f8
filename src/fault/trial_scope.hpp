#pragma once

#include <cstdint>

namespace slowcc::fault {

/// Per-trial deadline policy applied to every Simulator a trial builds.
struct TrialDeadlineConfig {
  /// Event budget per Simulator, enforced exactly inside
  /// Simulator::run_until (deterministic). 0 = unlimited.
  std::uint64_t max_events = 0;
  /// Wall-clock budget per Simulator, enforced by a Watchdog attached
  /// to each instance (nondeterministic by nature — a backstop that
  /// turns hung trials into kDeadlineExceeded rows, never a tuning
  /// knob for passing trials). 0 = unlimited.
  double max_wall_seconds = 0.0;
  /// Modeled-memory budget per Simulator, enforced by its
  /// ResourceGovernor (deterministic: the model is a function of live
  /// events/packets/queued bytes, never of real RSS). Crossing it
  /// throws SimError(kResourceExhausted). 0 = unlimited.
  std::uint64_t max_bytes = 0;
};

/// RAII guard that arms trial deadlines on the *current thread*: while
/// alive, every sim::Simulator constructed on this thread receives the
/// event budget above and — when a wall budget is set and the hook
/// slot is free — an attached Watchdog throwing
/// SimError(kDeadlineExceeded). Scenario drivers build their Simulators
/// privately, so this ambient hook is the only seam an orchestration
/// layer has; the guard uses Simulator::set_thread_construct_observer
/// and restores the slot on destruction (exception-safe).
///
/// A no-budget config (both limits 0) is valid and arms nothing, so
/// callers can pass a policy through unconditionally.
class ScopedTrialDeadline {
 public:
  explicit ScopedTrialDeadline(const TrialDeadlineConfig& config);
  ~ScopedTrialDeadline();

  ScopedTrialDeadline(const ScopedTrialDeadline&) = delete;
  ScopedTrialDeadline& operator=(const ScopedTrialDeadline&) = delete;

 private:
  bool armed_ = false;
};

}  // namespace slowcc::fault
