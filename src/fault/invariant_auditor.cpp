#include "fault/invariant_auditor.hpp"

#include <optional>
#include <utility>

#include "sim/error.hpp"

namespace slowcc::fault {

InvariantAuditor::InvariantAuditor(sim::Simulator& sim, AuditorConfig config)
    : sim_(sim), config_(config), timer_(sim, [this] { on_tick(); }) {
  if (config_.period <= sim::Time()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "InvariantAuditor",
                        "audit period must be > 0");
  }
}

void InvariantAuditor::watch_link(net::Link& link, std::string name) {
  if (name.empty()) {
    name = "link#" + std::to_string(links_.size());
  }
  links_.push_back(WatchedLink{&link, std::move(name)});
}

void InvariantAuditor::watch_topology(net::Topology& topo,
                                      const std::string& prefix) {
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    watch_link(topo.link(i), prefix + "#" + std::to_string(i));
  }
}

void InvariantAuditor::watch_timer(const sim::Timer& timer, std::string name) {
  if (name.empty()) {
    name = "timer#" + std::to_string(timers_.size());
  }
  timers_.push_back(WatchedTimer{&timer, std::move(name)});
}

void InvariantAuditor::start() {
  last_audit_time_ = sim_.now();
  timer_.schedule_in(config_.period);
}

void InvariantAuditor::stop() { timer_.cancel(); }

void InvariantAuditor::on_tick() {
  check_now();
  timer_.schedule_in(config_.period);
}

void InvariantAuditor::record(std::string violation) {
  ++pass_violations_;
  violations_.push_back(violation);
  if (config_.throw_on_violation) {
    throw sim::SimError(sim::SimErrc::kInvariantViolation, "InvariantAuditor",
                        std::move(violation));
  }
}

std::size_t InvariantAuditor::check_now() {
  ++audits_;
  pass_violations_ = 0;
  const sim::Time now = sim_.now();

  if (now < last_audit_time_) {
    record("clock moved backwards: " + now.to_string() + " < " +
           last_audit_time_.to_string());
  }
  last_audit_time_ = now;

  for (const WatchedLink& w : links_) {
    const net::LinkStats& s = w.link->stats();
    const std::uint64_t queued = w.link->queue().length_packets();
    const std::uint64_t in_tx = w.link->transmitting() ? 1 : 0;
    const std::uint64_t accounted =
        s.departures + s.drops_total() + queued + in_tx;
    if (s.arrivals != accounted) {
      record(w.name + ": packet conservation broken: arrivals=" +
             std::to_string(s.arrivals) + " != departures=" +
             std::to_string(s.departures) + " + drops=" +
             std::to_string(s.drops_total()) + " + queued=" +
             std::to_string(queued) + " + in_tx=" + std::to_string(in_tx));
    }
    if (s.bytes_delivered < 0) {
      record(w.name + ": negative bytes_delivered (" +
             std::to_string(s.bytes_delivered) + ")");
    }
    if (w.link->queue().length_bytes() < 0) {
      record(w.name + ": negative queue byte length");
    }
    if (queued > config_.max_queue_packets) {
      record(w.name + ": queue occupancy " + std::to_string(queued) +
             " exceeds bound " + std::to_string(config_.max_queue_packets));
    }
    if (!w.link->is_up() && (w.link->transmitting() || queued != 0)) {
      record(w.name + ": down link still holds packets (queued=" +
             std::to_string(queued) + ")");
    }
  }

  for (const WatchedTimer& w : timers_) {
    if (!w.timer->pending()) continue;
    const sim::Time deadline = w.timer->deadline();
    if (deadline < now) {
      record(w.name + ": pending timer deadline " + deadline.to_string() +
             " is in the past (now " + now.to_string() + ")");
    }
    const std::optional<sim::Time> engine = w.timer->engine_time();
    if (!engine) {
      record(w.name + ": pending timer has no engine event (deadline " +
             deadline.to_string() + ")");
    } else if (*engine != deadline) {
      record(w.name + ": pending timer deadline " + deadline.to_string() +
             " differs from its engine event's time " + engine->to_string());
    }
  }

  return pass_violations_;
}

}  // namespace slowcc::fault
