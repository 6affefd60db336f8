#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace slowcc::fault {

struct AuditorConfig {
  /// How often the periodic audit event runs.
  sim::Time period = sim::Time::millis(100);
  /// Upper bound on any watched queue's occupancy, packets. Dynamic
  /// links legitimately grow queues, but a queue beyond this is a leak.
  std::size_t max_queue_packets = 1u << 20;
  /// Throw sim::SimError (kInvariantViolation) on the first failed
  /// check. When false, violations are only recorded (for tests).
  bool throw_on_violation = true;
};

/// Runtime integrity checking for simulations whose network changes
/// under them. Registered links are checked for packet conservation
///
///   arrivals == departures + drops + queued + (1 if transmitting)
///
/// plus stats sanity and bounded queue occupancy; the simulation clock
/// must be monotonic across audits; a registered agent timer that is
/// pending must have a deadline that is not in the past (else the
/// engine lost an event) and equal to its engine event's time (else a
/// re-arm did not move the event). Runs as a periodic simulation
/// event; `check_now()` audits on demand.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(sim::Simulator& sim, AuditorConfig config = {});

  /// Watch one link. `name` labels violation messages.
  void watch_link(net::Link& link, std::string name = {});

  /// Watch every link of a topology.
  void watch_topology(net::Topology& topo, const std::string& prefix = "link");

  /// Watch an agent timer (must outlive the auditor or be unwatched by
  /// destroying the auditor first).
  void watch_timer(const sim::Timer& timer, std::string name = {});

  /// Start (or restart) the periodic audit.
  void start();
  void stop();

  /// Run every check immediately; returns the number of violations
  /// found in this pass (0 when healthy).
  std::size_t check_now();

  [[nodiscard]] std::uint64_t audits_performed() const noexcept {
    return audits_;
  }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }

 private:
  struct WatchedLink {
    net::Link* link;
    std::string name;
  };
  struct WatchedTimer {
    const sim::Timer* timer;
    std::string name;
  };

  void on_tick();
  void record(std::string violation);

  sim::Simulator& sim_;
  AuditorConfig config_;
  sim::Timer timer_;
  std::vector<WatchedLink> links_;
  std::vector<WatchedTimer> timers_;
  std::vector<std::string> violations_;
  std::uint64_t audits_ = 0;
  sim::Time last_audit_time_;
  std::size_t pass_violations_ = 0;
};

}  // namespace slowcc::fault
