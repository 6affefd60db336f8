#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/time.hpp"

namespace slowcc::cc {

/// TFRC receiver-side loss-event history.
///
/// Tracks loss *events* (losses within one RTT coalesce into a single
/// event, per the TFRC specification) and the *loss intervals* between
/// them, and computes the weighted average loss interval over the most
/// recent `n` intervals. TFRC(k) in the paper is exactly this structure
/// with n = k. Weights follow the TFRC draft: the newest half of the
/// intervals get weight 1, the older half decays linearly — for n = 8:
/// {1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}.
class TfrcLossHistory {
 public:
  /// `n` — number of loss intervals averaged (>= 1).
  explicit TfrcLossHistory(int n);

  /// Register an in-order data packet with sequence `seq`. Gaps below
  /// `seq` are registered as losses (the simulator's FIFO paths cannot
  /// reorder, so a gap is a loss). `sender_rtt` is the RTT estimate the
  /// packet carried (used to coalesce losses into events). Returns true
  /// if a *new loss event* started.
  bool on_packet(std::int64_t seq, sim::Time now, sim::Time sender_rtt);

  /// Loss event rate p in [0, 1]; 0 until the first loss event.
  [[nodiscard]] double loss_event_rate() const;

  /// Weighted average loss interval in packets (max of the estimates
  /// with and without the open interval); 0 until the first loss event.
  [[nodiscard]] double average_interval() const;

  [[nodiscard]] int loss_events() const noexcept { return total_events_; }

  /// When the most recent loss event began (zero time if none yet).
  [[nodiscard]] sim::Time last_event_start() const noexcept {
    return event_start_time_;
  }
  [[nodiscard]] std::int64_t packets_seen() const noexcept { return packets_; }
  [[nodiscard]] std::int64_t losses_seen() const noexcept { return losses_; }

  /// Enable history discounting (TFRC's optional mechanism that lets a
  /// long loss-free open interval reduce the weight of old history).
  void set_history_discounting(bool on) noexcept { discounting_ = on; }

  /// The weight vector used for `n` intervals (exposed for tests).
  [[nodiscard]] static std::vector<double> weights(int n);

 private:
  [[nodiscard]] double weighted_average(bool include_open) const;
  [[nodiscard]] double current_discount() const;
  [[nodiscard]] double current_discount_for_average() const;

  /// Floor on the history discount factor: even an enormous loss-free
  /// interval can't erase history entirely.
  static constexpr double kMinDiscount = 0.05;

  int n_;
  // weights(n_), built once: weighted_average() runs on every received
  // packet and must not allocate.
  std::vector<double> weights_;
  bool discounting_ = false;

  std::int64_t expected_ = 0;       // next in-order sequence expected
  std::int64_t packets_ = 0;        // total packets received
  std::int64_t losses_ = 0;         // total packets lost
  int total_events_ = 0;

  // Closed intervals, most recent first; bounded to n entries.
  std::deque<double> intervals_;
  // Open (current) interval: packets since the start of the last event.
  std::int64_t event_start_seq_ = -1;
  sim::Time event_start_time_;
};

}  // namespace slowcc::cc
