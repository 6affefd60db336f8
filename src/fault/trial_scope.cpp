#include "fault/trial_scope.hpp"

#include <cstdint>
#include <memory>

#include "fault/watchdog.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::fault {
namespace {

// Events between two wall-clock checks of a trial's Watchdog.
constexpr std::uint64_t kWallCheckEvery = 1024;

}  // namespace

ScopedTrialDeadline::ScopedTrialDeadline(const TrialDeadlineConfig& config) {
  if (config.max_events == 0 && config.max_wall_seconds <= 0.0 &&
      config.max_bytes == 0) {
    return;
  }
  sim::Simulator::set_thread_construct_observer(
      [config](sim::Simulator& sim) {
        if (config.max_events != 0) sim.set_event_budget(config.max_events);
        if (config.max_bytes != 0) {
          sim.governor().set_budget(config.max_bytes);
        }
        // The wall budget rides on the single event-hook slot; if the
        // scenario already claimed it (its own watchdog), leave it be —
        // the event budget above still bounds the trial exactly.
        if (config.max_wall_seconds > 0.0 && !sim.has_event_hook()) {
          WatchdogConfig wcfg;
          wcfg.max_wall_seconds = config.max_wall_seconds;
          wcfg.check_every_events = kWallCheckEvery;
          wcfg.error_code = sim::SimErrc::kDeadlineExceeded;
          sim.attach_guard(std::make_shared<Watchdog>(sim, wcfg));
        }
      });
  armed_ = true;
}

ScopedTrialDeadline::~ScopedTrialDeadline() {
  if (armed_) sim::Simulator::set_thread_construct_observer(nullptr);
}

}  // namespace slowcc::fault
