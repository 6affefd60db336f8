#pragma once

#include "cc/agent.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// TEAR receiver (Rhee et al. 2000): emulates the TCP congestion
/// window *at the receiver* from the arriving packet stream, smooths it
/// with an exponentially-weighted moving average, and reports
/// rate = EWMA(cwnd) · s / RTT back to the sender once per RTT.
///
/// This keeps TCP's window dynamics (so TEAR is TCP-compatible in the
/// static sense) while the averaging makes the *sending rate* slowly
/// responsive — the paper classifies TEAR as a SlowCC for exactly this
/// reason.
class TearSink final : public SinkBase {
 public:
  /// `ewma_weight`: weight of the newest window sample (default 0.125,
  /// roughly an 8-round memory like TFRC(8)).
  TearSink(sim::Simulator& sim, net::Node& local, double ewma_weight = 0.125);

  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] double emulated_cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] double smoothed_cwnd() const noexcept { return cwnd_avg_; }

 private:
  void on_feedback_timer();
  void send_feedback();

  sim::Timer feedback_timer_;
  double ewma_weight_;

  static constexpr std::int64_t kFeedbackSize = 40;  // bytes
  bool saw_packet_ = false;
  std::int64_t pkt_size_ = 1000;
  sim::Time sender_rtt_;

  // Receiver-side TCP emulation.
  std::int64_t expected_ = 0;
  double cwnd_ = 2.0;
  double ssthresh_ = 1e9;
  double cwnd_avg_ = 0.0;
  bool have_avg_ = false;
  sim::Time last_loss_event_;
};

/// TEAR sender: transmits at whatever rate the receiver reports.
///
/// All congestion control intelligence lives in `TearSink`; the sender
/// is a rate-based pump with a no-feedback fallback (halve the rate if
/// reports stop arriving — the receiver may be unreachable).
class TearAgent final : public Agent {
 public:
  TearAgent(sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
            net::PortId peer_port, net::FlowId flow);

  void start() override;
  void stop() override;
  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] double rate_bytes_per_sec() const noexcept { return rate_; }
  [[nodiscard]] sim::Time srtt() const noexcept {
    return sim::Time::seconds(srtt_s_);
  }

 private:
  void on_send_timer();
  void on_no_feedback_timer();
  void schedule_next_send();

  sim::Timer send_timer_;
  sim::Timer no_feedback_timer_;

  bool running_ = false;
  double rate_ = 0.0;  // bytes per second
  std::int64_t next_seq_ = 0;
  double srtt_s_ = 0.0;
  bool have_rtt_ = false;
};

}  // namespace slowcc::cc
