#pragma once

#include "cc/agent.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// TFRC sender tunables.
struct TfrcConfig {
  /// Enable the paper's `conservative_` option (§4.1.1): after a loss
  /// report, cap the sending rate at the reported receive rate; in the
  /// absence of loss, cap it at `conservative_c` × receive rate. This
  /// re-imposes packet conservation (self-clocking) on TFRC.
  bool conservative = false;
  /// The constant C in the pseudo-code; the paper uses 1.1.
  double conservative_c = 1.1;
  /// RTT EWMA weight q: R <- q R + (1-q) sample.
  double rtt_weight = 0.9;
  /// Maximum back-off interval t_mbi: rate floor is one packet per
  /// t_mbi seconds (spec value 64 s).
  double t_mbi = 64.0;
};

/// TFRC(k) sender: equation-based rate control (Floyd et al. 2000).
///
/// The sending rate is computed from the receiver-reported loss event
/// rate via the Padhye TCP response function, capped at twice the
/// reported receive rate (spec behavior), or — with the conservative
/// option — at the receive rate itself after a loss (the paper's
/// "TFRC with self-clocking"). Transmission is timer-driven at the
/// allowed rate, NOT clocked by feedback: TFRC is rate-based, which is
/// the behavior §4.1 of the paper stresses. The `k` of TFRC(k) lives in
/// the paired `TfrcSink`'s loss history.
class TfrcAgent final : public Agent {
 public:
  TfrcAgent(sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
            net::PortId peer_port, net::FlowId flow,
            const TfrcConfig& config = {});

  void start() override;
  void stop() override;
  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] double rate_bytes_per_sec() const noexcept { return rate_; }
  [[nodiscard]] double rate_bps() const noexcept { return rate_ * 8.0; }
  [[nodiscard]] sim::Time srtt() const noexcept {
    return sim::Time::seconds(srtt_s_);
  }
  [[nodiscard]] bool in_slow_start() const noexcept { return slow_start_; }
  [[nodiscard]] const TfrcConfig& config() const noexcept { return config_; }
  /// The send and no-feedback timers, for audits
  /// (fault::InvariantAuditor).
  [[nodiscard]] const sim::Timer& send_timer() const noexcept {
    return send_timer_;
  }
  [[nodiscard]] const sim::Timer& no_feedback_timer() const noexcept {
    return no_feedback_timer_;
  }

 private:
  void on_send_timer();
  void on_no_feedback_timer();
  void schedule_next_send();
  void restart_no_feedback_timer();
  [[nodiscard]] double min_rate() const noexcept;

  TfrcConfig config_;
  sim::Timer send_timer_;
  sim::Timer no_feedback_timer_;

  bool running_ = false;
  bool slow_start_ = true;
  double rate_ = 0.0;  // bytes per second
  std::int64_t next_seq_ = 0;

  double srtt_s_ = 0.0;
  bool have_rtt_ = false;
};

}  // namespace slowcc::cc
