#include "metrics/throughput_monitor.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace slowcc::metrics {

ThroughputMonitor::ThroughputMonitor(sim::Simulator& sim, net::Link& link,
                                     sim::Time bin_width, Filter filter)
    : sim_(sim), bin_width_(bin_width), filter_(std::move(filter)) {
  if (bin_width <= sim::Time()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ThroughputMonitor",
                        "bin width must be > 0");
  }
  link.add_observer(this);
}

std::size_t ThroughputMonitor::bin_index(sim::Time t) const noexcept {
  return static_cast<std::size_t>(t.as_nanos() / bin_width_.as_nanos());
}

void ThroughputMonitor::on_depart(const net::Packet& p) {
  if (filter_ && !filter_(p)) return;
  const std::size_t i = bin_index(sim_.now());
  // A new bin opens once per bin width of simulated time, not per
  // packet, and the vector grows geometrically.
  // slowcc-lint: allow(no-hot-path-alloc) once per bin width, amortized
  if (i >= bins_.size()) bins_.resize(i + 1, 0);
  bins_[i] += p.size_bytes;
  total_ += p.size_bytes;
}

std::int64_t ThroughputMonitor::bytes_in_bin(std::size_t i) const noexcept {
  return i < bins_.size() ? bins_[i] : 0;
}

std::int64_t ThroughputMonitor::bytes_between(sim::Time t0,
                                              sim::Time t1) const {
  if (t1 <= t0) return 0;
  const std::size_t first = bin_index(t0);
  const std::size_t last = bin_index(t1);  // exclusive
  std::int64_t sum = 0;
  for (std::size_t i = first; i < last && i < bins_.size(); ++i) {
    sum += bins_[i];
  }
  return sum;
}

double ThroughputMonitor::rate_bps_between(sim::Time t0, sim::Time t1) const {
  if (t1 <= t0) return 0.0;
  return static_cast<double>(bytes_between(t0, t1)) * 8.0 /
         (t1 - t0).as_seconds();
}

std::vector<double> ThroughputMonitor::rate_series_bps(sim::Time t0,
                                                       sim::Time t1) const {
  std::vector<double> out;
  const std::size_t first = bin_index(t0);
  const std::size_t last = bin_index(t1);
  const double w = bin_width_.as_seconds();
  for (std::size_t i = first; i < last; ++i) {
    out.push_back(static_cast<double>(bytes_in_bin(i)) * 8.0 / w);
  }
  return out;
}

}  // namespace slowcc::metrics
