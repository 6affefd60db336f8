#pragma once

#include <utility>
#include <vector>

#include "cc/agent.hpp"
#include "cc/tfrc_loss_history.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// TFRC receiver.
///
/// Maintains the loss-event history, measures the receive rate, and
/// reports {loss event rate, receive rate, echoed timestamp, whether a
/// new loss event occurred} back to the sender — once per RTT, plus an
/// immediate report whenever a new loss event starts (so the sender
/// reacts within one RTT of congestion, per the TFRC specification).
class TfrcSink final : public SinkBase {
 public:
  /// `history_n` is the k of TFRC(k): loss intervals averaged.
  TfrcSink(sim::Simulator& sim, net::Node& local, int history_n);

  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] const TfrcLossHistory& history() const noexcept {
    return history_;
  }
  [[nodiscard]] TfrcLossHistory& history() noexcept { return history_; }
  /// The periodic feedback timer, for audits (fault::InvariantAuditor).
  [[nodiscard]] const sim::Timer& feedback_timer() const noexcept {
    return feedback_timer_;
  }

 private:
  void send_feedback();
  void on_feedback_timer();

  TfrcLossHistory history_;
  sim::Timer feedback_timer_;
  static constexpr std::int64_t kFeedbackSize = 40;  // bytes

  bool saw_packet_ = false;
  sim::Time sender_rtt_;          // sender's RTT estimate, from packets
  bool data_since_feedback_ = false;
  bool loss_since_feedback_ = false;

  // Rolling window of arrivals for the receive-rate estimate. Rate is
  // measured over (roughly) the last RTT regardless of when feedback
  // fires, so expedited loss reports don't inflate X_recv by measuring
  // over a near-zero interval.
  //
  // Stored as a ring over a vector sized at flow setup: per-packet
  // push/evict reuse slots in place and never allocate until a burst
  // outgrows the reservation (doubled on the cold path).
  static constexpr std::size_t kWindowReserve = 512;
  std::vector<std::pair<sim::Time, std::int64_t>> window_;
  std::size_t win_head_ = 0;   // index of the oldest entry
  std::size_t win_count_ = 0;  // live entries
  void window_push(sim::Time t, std::int64_t bytes);
  void window_evict_older_than(sim::Time horizon_start);
  [[nodiscard]] double receive_rate_bytes_per_sec() const;
  [[nodiscard]] sim::Time rate_window() const;
};

}  // namespace slowcc::cc
