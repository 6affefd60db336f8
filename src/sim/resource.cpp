#include "sim/resource.hpp"

#include <string>

#include "sim/error.hpp"

namespace slowcc::sim {
namespace {

// Per-thread peak accumulator: survives the Simulator (and thus the
// governor) being destroyed while a kResourceExhausted exception
// unwinds the scenario driver, so the trial harness can still stamp
// peak-usage fields into the quarantine row.
thread_local ResourceUsage t_peaks;

void raise_peaks(ResourceUsage& peaks, const ResourceUsage& usage) noexcept {
  if (usage.live_events > peaks.live_events)
    peaks.live_events = usage.live_events;
  if (usage.live_packets > peaks.live_packets)
    peaks.live_packets = usage.live_packets;
  if (usage.queued_bytes > peaks.queued_bytes)
    peaks.queued_bytes = usage.queued_bytes;
  if (usage.bytes_estimate > peaks.bytes_estimate)
    peaks.bytes_estimate = usage.bytes_estimate;
}

}  // namespace

void ResourceGovernor::set_budget(std::uint64_t max_bytes) noexcept {
  max_bytes_ = max_bytes;
  peaks_ = ResourceUsage{};
}

void ResourceGovernor::poll(std::uint64_t live_events) {
  ResourceUsage usage;
  usage.live_events = live_events;
  usage.live_packets = live_packets();
  usage.queued_bytes = queued_bytes();
  usage.bytes_estimate = bytes_estimate(live_events);
  raise_peaks(peaks_, usage);
  raise_peaks(t_peaks, usage);
  if (max_bytes_ != 0 && usage.bytes_estimate > max_bytes_) {
    throw SimError(
        SimErrc::kResourceExhausted, "ResourceGovernor",
        "modeled footprint " + std::to_string(usage.bytes_estimate) +
            " bytes exceeds budget " + std::to_string(max_bytes_) + " (" +
            std::to_string(usage.live_events) + " live events, " +
            std::to_string(usage.live_packets) + " live packets, " +
            std::to_string(usage.queued_bytes) + " queued bytes)");
  }
}

const ResourceUsage& ResourceGovernor::thread_peaks() noexcept {
  return t_peaks;
}

void ResourceGovernor::reset_thread_peaks() noexcept {
  t_peaks = ResourceUsage{};
}

}  // namespace slowcc::sim
