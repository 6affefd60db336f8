#include "cc/tcp_agent.hpp"

#include <algorithm>
#include <cmath>

namespace slowcc::cc {

TcpAgent::TcpAgent(sim::Simulator& sim, net::Node& local,
                   net::NodeId peer_node, net::PortId peer_port,
                   net::FlowId flow, std::unique_ptr<WindowPolicy> policy,
                   const TcpConfig& config)
    : Agent(sim, local, peer_node, peer_port, flow),
      policy_(std::move(policy)),
      config_(config),
      rto_timer_(sim, [this] { on_rto(); }),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.initial_ssthresh) {}

std::unique_ptr<TcpAgent> TcpAgent::make_tcp(sim::Simulator& sim,
                                             net::Node& local,
                                             net::NodeId peer_node,
                                             net::PortId peer_port,
                                             net::FlowId flow, double b) {
  return std::make_unique<TcpAgent>(
      sim, local, peer_node, peer_port, flow,
      std::make_unique<AimdPolicy>(AimdPolicy::tcp_compatible(b)));
}

std::unique_ptr<TcpAgent> TcpAgent::make_sqrt(sim::Simulator& sim,
                                              net::Node& local,
                                              net::NodeId peer_node,
                                              net::PortId peer_port,
                                              net::FlowId flow, double b) {
  return std::make_unique<TcpAgent>(
      sim, local, peer_node, peer_port, flow,
      std::make_unique<BinomialPolicy>(BinomialPolicy::sqrt_policy(b)));
}

void TcpAgent::start() {
  if (running_ || complete_) return;
  running_ = true;
  send_available();
}

void TcpAgent::stop() {
  running_ = false;
  rto_timer_.cancel();
}

double TcpAgent::effective_window() const noexcept {
  // Reno-style window inflation: each dup ACK signals a packet has left
  // the network, so during recovery the usable window grows by one per
  // dup ACK beyond the threshold.
  double w = cwnd_;
  if (in_recovery_) w += dup_acks_;
  return w;
}

void TcpAgent::send_available() {
  if (!running_) return;
  while (outstanding() < static_cast<std::int64_t>(effective_window()) &&
         (data_limit_ < 0 || next_seq_ < data_limit_)) {
    send_segment(next_seq_, /*is_retransmit=*/false);
    ++next_seq_;
  }
}

void TcpAgent::send_segment(std::int64_t seq, bool is_retransmit) {
  auto [h, p] = make_packet(net::PacketType::kData);
  p.seq = seq;
  p.rtt_estimate = srtt();
  if (is_retransmit) ++stats_.retransmits;
  inject(h);
  if (!rto_timer_.pending()) restart_rto_timer();
}

sim::Time TcpAgent::current_rto() const {
  double rto_s;
  if (have_rtt_) {
    rto_s = srtt_s_ + 4.0 * rttvar_s_;
  } else {
    rto_s = 1.0;  // conventional initial RTO before any sample
  }
  rto_s = std::max(rto_s, config_.min_rto.as_seconds());
  rto_s *= backoff_;
  rto_s = std::min(rto_s, config_.max_rto.as_seconds());
  return sim::Time::seconds(rto_s);
}

void TcpAgent::restart_rto_timer() { rto_timer_.schedule_in(current_rto()); }

void TcpAgent::sample_rtt(sim::Time sample) {
  const double s = sample.as_seconds();
  if (!have_rtt_) {
    srtt_s_ = s;
    rttvar_s_ = s / 2.0;
    have_rtt_ = true;
  } else {
    rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - s);
    srtt_s_ = 0.875 * srtt_s_ + 0.125 * s;
  }
}

void TcpAgent::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kAck || !running_) return;
  ++stats_.acks_received;

  if (p.seq > snd_una_) {
    on_new_ack(p);
  } else if (outstanding() > 0) {
    on_dup_ack(p);
  }

  if (config_.react_to_ecn && p.ecn_marked && !in_recovery_ &&
      sim_.now() - last_decrease_ > srtt()) {
    // Echoed congestion mark: reduce once per RTT, no retransmission.
    ++stats_.congestion_events;
    apply_decrease();
  }

  maybe_complete();
  send_available();
}

void TcpAgent::on_new_ack(const net::Packet& ack) {
  sample_rtt(sim_.now() - ack.echo);
  backoff_ = 1;

  const std::int64_t newly_acked = ack.seq - snd_una_;
  snd_una_ = ack.seq;

  bool partial_ack = false;
  if (in_recovery_) {
    if (ack.seq > recover_) {
      // Full recovery: every segment outstanding at the loss is acked.
      in_recovery_ = false;
      dup_acks_ = 0;
      cwnd_ = ssthresh_;
    } else {
      // NewReno partial ACK: the next hole was also lost; retransmit it
      // immediately and stay in recovery. Deflate by the amount acked.
      partial_ack = true;
      dup_acks_ = std::max(0, dup_acks_ - static_cast<int>(newly_acked));
      send_segment(snd_una_, /*is_retransmit=*/true);
    }
  } else {
    dup_acks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += policy_->increase_per_rtt(cwnd_) / cwnd_;
    }
  }

  if (outstanding() == 0) {
    rto_timer_.cancel();
  } else if (!partial_ack) {
    restart_rto_timer();
  }
  // RFC 6582 "impatient" variant: partial ACKs do not refresh the
  // retransmit timer, so a recovery with many holes (one hole repaired
  // per RTT) gives up to a timeout instead of grinding for seconds.
}

void TcpAgent::on_dup_ack(const net::Packet& /*ack*/) {
  ++dup_acks_;
  if (!in_recovery_ && dup_acks_ == config_.dupack_threshold) {
    enter_recovery();
  } else if (!in_recovery_ && config_.limited_transmit &&
             dup_acks_ <= 2 &&
             (data_limit_ < 0 || next_seq_ < data_limit_)) {
    // RFC 3042: each of the first two dup ACKs signals a delivered
    // packet; send one new segment beyond the window to keep the ACK
    // clock alive (critical when the window is tiny).
    send_segment(next_seq_, /*is_retransmit=*/false);
    ++next_seq_;
  }
  // Dup ACKs beyond the threshold inflate the usable window via
  // effective_window(); send_available() (called by handle_packet)
  // transmits new data if the inflated window allows.
}

void TcpAgent::enter_recovery() {
  in_recovery_ = true;
  recover_ = next_seq_ - 1;
  ++stats_.congestion_events;
  apply_decrease();
  send_segment(snd_una_, /*is_retransmit=*/true);  // fast retransmit
}

void TcpAgent::apply_decrease() {
  ssthresh_ = std::max(2.0, policy_->decrease_to(cwnd_));
  cwnd_ = ssthresh_;
  last_decrease_ = sim_.now();
}

void TcpAgent::on_rto() {
  if (!running_ || outstanding() == 0) return;
  ++stats_.timeouts;
  ++stats_.congestion_events;

  // Timeout: lose self-clock, restart from one segment. The slow-start
  // threshold still honors the policy's decrease rule so that TCP(b)
  // variants return toward (1-b) of the pre-loss operating point.
  ssthresh_ = std::max(2.0, policy_->decrease_to(cwnd_));
  cwnd_ = 1.0;
  in_recovery_ = false;
  dup_acks_ = 0;
  backoff_ = std::min(backoff_ * 2, config_.max_backoff);
  last_decrease_ = sim_.now();

  // Go-back-N: everything past snd_una is treated as no longer in
  // flight and will be (re)sent as the window re-opens — the classic
  // BSD behavior (snd_nxt = snd_una on timeout). Without the rewind,
  // stale in-flight accounting (outstanding >> cwnd) would block all
  // transmission and each RTO would deliver exactly one packet.
  send_segment(snd_una_, /*is_retransmit=*/true);
  next_seq_ = snd_una_ + 1;
  restart_rto_timer();
}

void TcpAgent::maybe_complete() {
  if (complete_ || data_limit_ < 0 || snd_una_ < data_limit_) return;
  complete_ = true;
  running_ = false;
  rto_timer_.cancel();
  if (on_complete_) on_complete_();
}

}  // namespace slowcc::cc
