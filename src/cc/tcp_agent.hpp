#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "cc/agent.hpp"
#include "cc/window_policy.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// Tunables for the TCP machinery (defaults follow ns-2-era settings;
/// the paper's scenarios use 1000-byte segments and ~50 ms RTTs).
struct TcpConfig {
  double initial_cwnd = 2.0;         // packets
  double initial_ssthresh = 1e9;     // effectively "slow-start to loss"
  sim::Time min_rto = sim::Time::millis(200);
  sim::Time max_rto = sim::Time::seconds(64.0);
  int max_backoff = 64;              // cap on the exponential backoff factor
  int dupack_threshold = 3;
  bool react_to_ecn = true;          // treat echoed marks as congestion
  /// RFC 3042 Limited Transmit (paper ref [1]): send one new segment on
  /// each of the first two duplicate ACKs, keeping the ACK clock alive
  /// for small windows. Off by default (not part of the paper's TCPs).
  bool limited_transmit = false;
};

/// Window-based, self-clocked transport: TCP(b) and the binomial
/// algorithms, depending on the installed `WindowPolicy`.
///
/// Implements slow-start, congestion avoidance via the policy, fast
/// retransmit + NewReno-style recovery (partial ACKs retransmit the
/// next hole; window inflation by dupack count), retransmit timeouts
/// with exponential backoff, and Karn-free RTT sampling from echoed
/// timestamps. Transmissions are clocked by ACK arrivals — the packet
/// conservation principle that the paper identifies as the crucial
/// safety mechanism under dynamic conditions.
class TcpAgent final : public Agent {
 public:
  TcpAgent(sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
           net::PortId peer_port, net::FlowId flow,
           std::unique_ptr<WindowPolicy> policy,
           const TcpConfig& config = {});

  /// TCP(b): AIMD with the paper's TCP-compatible a(b). b = 1/2 is
  /// standard TCP.
  [[nodiscard]] static std::unique_ptr<TcpAgent> make_tcp(
      sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
      net::PortId peer_port, net::FlowId flow, double b = 0.5);

  /// SQRT(b): binomial k = l = 1/2 sharing all TCP machinery.
  [[nodiscard]] static std::unique_ptr<TcpAgent> make_sqrt(
      sim::Simulator& sim, net::Node& local, net::NodeId peer_node,
      net::PortId peer_port, net::FlowId flow, double b = 0.5);

  void start() override;
  void stop() override;
  void handle_packet(const net::Packet& p) override;

  /// Limit the flow to `packets` data segments (for short web
  /// transfers); unlimited by default.
  void set_data_limit(std::int64_t packets) noexcept { data_limit_ = packets; }

  /// Invoked once when a limited flow has every segment acknowledged.
  void set_completion_callback(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] double ssthresh() const noexcept { return ssthresh_; }
  [[nodiscard]] bool in_recovery() const noexcept { return in_recovery_; }
  [[nodiscard]] sim::Time srtt() const noexcept {
    return sim::Time::seconds(srtt_s_);
  }
  [[nodiscard]] sim::Time current_rto() const;
  [[nodiscard]] const WindowPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] std::int64_t snd_una() const noexcept { return snd_una_; }
  [[nodiscard]] std::int64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] const TcpConfig& config() const noexcept { return config_; }
  /// The retransmit timer, for audits (fault::InvariantAuditor).
  [[nodiscard]] const sim::Timer& rto_timer() const noexcept {
    return rto_timer_;
  }

 private:
  void send_available();
  void send_segment(std::int64_t seq, bool is_retransmit);
  void on_new_ack(const net::Packet& ack);
  void on_dup_ack(const net::Packet& ack);
  void on_rto();
  void enter_recovery();
  void apply_decrease();
  void sample_rtt(sim::Time sample);
  void restart_rto_timer();
  [[nodiscard]] std::int64_t outstanding() const noexcept {
    return next_seq_ - snd_una_;
  }
  [[nodiscard]] double effective_window() const noexcept;
  void maybe_complete();

  std::unique_ptr<WindowPolicy> policy_;
  TcpConfig config_;
  sim::Timer rto_timer_;

  bool running_ = false;
  bool complete_ = false;

  double cwnd_;
  double ssthresh_;
  std::int64_t next_seq_ = 0;
  std::int64_t snd_una_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = -1;  // highest seq sent when recovery began

  // RTT estimation (RFC 6298 smoothing), seconds.
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  bool have_rtt_ = false;
  int backoff_ = 1;

  // ECN: at most one reaction per RTT.
  sim::Time last_decrease_;

  std::int64_t data_limit_ = -1;  // -1 = unlimited
  std::function<void()> on_complete_;
};

}  // namespace slowcc::cc
