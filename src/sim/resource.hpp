#pragma once

#include <cstddef>
#include <cstdint>

namespace slowcc::sim {

/// Snapshot of the governor's usage model, both the live values at one
/// poll and the running peaks over a trial. All fields are derived from
/// logical simulation state (live events, live packets, queued bytes),
/// so they are identical across engines, thread counts, and processes —
/// safe to serialize into deterministic result rows.
struct ResourceUsage {
  std::uint64_t live_events = 0;
  std::uint64_t live_packets = 0;
  std::uint64_t queued_bytes = 0;  // summed size of the live packets
  /// Modeled footprint: live_events * kEventFootprintBytes +
  /// live_packets * kPacketFootprintBytes + queued_bytes.
  std::uint64_t bytes_estimate = 0;
};

/// Per-simulation resource accountant: turns "this trial is eating the
/// machine" into a structured, deterministic trial outcome instead of a
/// process OOM-kill.
///
/// The governor reads three cheap counters:
///   - live events: read from the event queue (EventQueue::size() counts
///     non-cancelled entries in O(1)), so scheduling needs no hooks;
///   - live packets and their summed bytes: read from the simulation's
///     `net::PacketPool`, which registers both with `count_packets` —
///     every pooled packet counts, queued, in flight or propagating.
///
/// From those it models a byte footprint (see ResourceUsage). When a
/// budget is armed, `Simulator::run_until` polls the governor between
/// events, and crossing the ceiling throws SimError(kResourceExhausted)
/// with a deterministic detail string.
///
/// The model is intentionally coarse — the point is not byte-accurate
/// RSS accounting but a deterministic proxy that
/// aborts the same trial at the same event on every run. It does not
/// watch the process's real RSS; the per-trial budget is the only
/// memory defense.
class ResourceGovernor {
 public:
  /// Modeled per-object footprints (bytes). Deliberately round numbers:
  /// a pooled event-queue node is ~72 bytes, a
  /// Packet with bookkeeping ~100-150. Changing them changes which
  /// event a bomb trial aborts at, so they are part of the determinism
  /// contract — bump only with the golden journals.
  static constexpr std::uint64_t kEventFootprintBytes = 64;
  static constexpr std::uint64_t kPacketFootprintBytes = 128;

  /// Arm (or re-arm) the budget: `max_bytes` is the hard ceiling for
  /// the modeled footprint, 0 disarms. Re-arming resets the peaks.
  void set_budget(std::uint64_t max_bytes) noexcept;

  [[nodiscard]] bool armed() const noexcept { return max_bytes_ != 0; }
  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }

  /// Read live packets and bytes from `live_packets`/`live_bytes`
  /// (nullptr for both: no packets). The counters must outlive the
  /// registration; `net::PacketPool::of` registers its pool's and the
  /// pool's guard clears them.
  void count_packets(const std::size_t* live_packets,
                     const std::uint64_t* live_bytes) noexcept {
    live_packets_ = live_packets;
    live_bytes_ = live_bytes;
  }

  [[nodiscard]] std::uint64_t live_packets() const noexcept {
    return live_packets_ == nullptr ? 0 : *live_packets_;
  }
  /// Summed size of the live packets (the `queued_bytes` of the model
  /// and of ResourceUsage).
  [[nodiscard]] std::uint64_t queued_bytes() const noexcept {
    return live_bytes_ == nullptr ? 0 : *live_bytes_;
  }

  /// Modeled footprint for a given live-event count.
  [[nodiscard]] std::uint64_t bytes_estimate(
      std::uint64_t live_events) const noexcept {
    return live_events * kEventFootprintBytes +
           live_packets() * kPacketFootprintBytes + queued_bytes();
  }

  /// Budget check, called by Simulator::run_until after each event when
  /// armed. Updates instance and thread-local peaks and throws
  /// SimError(kResourceExhausted) when the model crosses the ceiling.
  void poll(std::uint64_t live_events);

  /// Running peaks since construction / the last re-arm.
  [[nodiscard]] const ResourceUsage& peaks() const noexcept { return peaks_; }

  /// Peak usage across every governed Simulator on the calling thread
  /// since the last reset. The trial harness reads this *after* the
  /// scenario driver (and its Simulator) has been torn down by an
  /// in-flight kResourceExhausted exception, which is why the peaks
  /// must outlive the governor instance.
  [[nodiscard]] static const ResourceUsage& thread_peaks() noexcept;
  static void reset_thread_peaks() noexcept;

 private:
  const std::size_t* live_packets_ = nullptr;
  const std::uint64_t* live_bytes_ = nullptr;
  std::uint64_t max_bytes_ = 0;  // 0 = disarmed
  ResourceUsage peaks_;
};

}  // namespace slowcc::sim
