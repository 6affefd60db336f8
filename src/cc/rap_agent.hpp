#pragma once

#include <set>

#include "cc/agent.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// RAP receiver: acknowledges every data packet individually (echoing
/// its sequence number and timestamp). The sender reconstructs losses
/// from holes in the acknowledged sequence space.
class RapSink final : public SinkBase {
 public:
  RapSink(sim::Simulator& sim, net::Node& local);
  void handle_packet(const net::Packet& p) override;

  void set_ack_size(std::int64_t bytes) noexcept { ack_size_ = bytes; }

 private:
  std::int64_t ack_size_ = 40;
};

/// Tunables for RAP.
struct RapConfig {
  double initial_rate_pps = 2.0;   // packets per second at start
  double min_rate_pps = 0.5;       // floor (one packet per 2 s)
  int loss_detection_gap = 3;      // acks beyond a hole => loss (3-dupack analogue)
};

/// Rejaie et al.'s Rate Adaptation Protocol: AIMD applied to a *rate*.
///
/// RAP(b) increases its rate by the TCP-compatible a(b) packets/RTT
/// each RTT without loss, and multiplies the rate by (1-b) on each loss
/// event (at most once per RTT). Standard RAP is RAP(1/2), which is
/// TCP-equivalent in increase/decrease rules — but crucially RAP is
/// *rate-based*: transmissions come from a timer at the current rate,
/// not from ACK arrivals. The absence of self-clocking is what §4.1 of
/// the paper isolates with this agent.
class RapAgent final : public Agent {
 public:
  RapAgent(sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
           net::PortId peer_port, net::FlowId flow, double b = 0.5,
           const RapConfig& config = {});

  void start() override;
  void stop() override;
  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] double rate_pps() const noexcept { return rate_pps_; }
  [[nodiscard]] double rate_bps() const noexcept {
    return rate_pps_ * static_cast<double>(packet_size()) * 8.0;
  }
  [[nodiscard]] sim::Time srtt() const noexcept {
    return sim::Time::seconds(srtt_s_);
  }
  /// The send, rate-increase and loss-timeout timers, for audits
  /// (fault::InvariantAuditor).
  [[nodiscard]] const sim::Timer& send_timer() const noexcept {
    return send_timer_;
  }
  [[nodiscard]] const sim::Timer& increase_timer() const noexcept {
    return increase_timer_;
  }
  [[nodiscard]] const sim::Timer& timeout_timer() const noexcept {
    return timeout_timer_;
  }

 private:
  void on_send_timer();
  void on_increase_timer();
  void on_timeout();
  void loss_event();
  void schedule_next_send();

  double a_;  // increase, packets per RTT
  double b_;  // multiplicative decrease factor
  RapConfig config_;

  sim::Timer send_timer_;
  sim::Timer increase_timer_;
  sim::Timer timeout_timer_;

  bool running_ = false;
  double rate_pps_;
  std::int64_t next_seq_ = 0;
  std::int64_t recover_ = -1;    // loss events for seqs <= recover_ are merged
  std::set<std::int64_t> unacked_;

  double srtt_s_ = 0.05;
  bool have_rtt_ = false;
  bool loss_since_increase_ = false;
};

}  // namespace slowcc::cc
