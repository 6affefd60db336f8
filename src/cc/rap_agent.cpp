#include "cc/rap_agent.hpp"

#include <algorithm>
#include <cmath>

#include "cc/window_policy.hpp"

namespace slowcc::cc {

RapSink::RapSink(sim::Simulator& sim, net::Node& local)
    : SinkBase(sim, local) {}

void RapSink::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  note_received(p);

  auto [h, ack] = make_reply(net::PacketType::kRapAck, ack_size_);
  ack.seq = p.seq;
  send(h);
}

RapAgent::RapAgent(sim::Simulator& sim, net::Node& local,
                   net::NodeId peer_node, net::PortId peer_port,
                   net::FlowId flow, double b, const RapConfig& config)
    : Agent(sim, local, peer_node, peer_port, flow),
      a_(AimdPolicy::compatible_a(b)),
      b_(b),
      config_(config),
      send_timer_(sim, [this] { on_send_timer(); }),
      increase_timer_(sim, [this] { on_increase_timer(); }),
      timeout_timer_(sim, [this] { on_timeout(); }),
      rate_pps_(config.initial_rate_pps) {}

void RapAgent::start() {
  if (running_) return;
  running_ = true;
  schedule_next_send();
  increase_timer_.schedule_in(sim::Time::seconds(srtt_s_));
  timeout_timer_.schedule_in(sim::Time::seconds(4.0 * srtt_s_ + 1.0));
}

void RapAgent::stop() {
  running_ = false;
  send_timer_.cancel();
  increase_timer_.cancel();
  timeout_timer_.cancel();
}

void RapAgent::schedule_next_send() {
  if (!running_) return;
  send_timer_.schedule_in(sim::Time::seconds(1.0 / rate_pps_));
}

void RapAgent::on_send_timer() {
  if (!running_) return;
  auto [h, p] = make_packet(net::PacketType::kData);
  p.seq = next_seq_;
  p.rtt_estimate = srtt();
  unacked_.insert(next_seq_);
  ++next_seq_;
  // Bound sender state: anything more than ~8 RTTs of packets old and
  // still unacked is certainly gone; forget it without further action
  // (the loss was already accounted when newer ACKs arrived).
  while (unacked_.size() > 4096) unacked_.erase(unacked_.begin());
  inject(h);
  schedule_next_send();
}

void RapAgent::on_increase_timer() {
  if (!running_) return;
  if (!loss_since_increase_) {
    // Additive increase: a packets per RTT each RTT  =>  rate grows by
    // a/srtt packets/sec.
    rate_pps_ += a_ / std::max(srtt_s_, 1e-4);
  }
  loss_since_increase_ = false;
  increase_timer_.schedule_in(sim::Time::seconds(std::max(srtt_s_, 1e-3)));
}

void RapAgent::loss_event() {
  ++stats_.congestion_events;
  rate_pps_ = std::max(config_.min_rate_pps, rate_pps_ * (1.0 - b_));
  loss_since_increase_ = true;
  // Merge all losses within the packets currently in flight into one
  // event, as RAP (and TCP) do.
  recover_ = next_seq_ - 1;
}

void RapAgent::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kRapAck || !running_) return;
  ++stats_.acks_received;

  const sim::Time sample = sim_.now() - p.echo;
  if (!have_rtt_) {
    srtt_s_ = sample.as_seconds();
    have_rtt_ = true;
  } else {
    srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample.as_seconds();
  }

  unacked_.erase(p.seq);

  // Hole-based loss detection: once `loss_detection_gap` packets beyond
  // an unacked sequence have been acknowledged, that packet is lost.
  const std::int64_t lost_below = p.seq - config_.loss_detection_gap;
  bool fresh_loss = false;
  auto it = unacked_.begin();
  while (it != unacked_.end() && *it <= lost_below) {
    if (*it > recover_) fresh_loss = true;
    it = unacked_.erase(it);
  }
  if (fresh_loss) loss_event();

  // ACK activity refreshes the fallback timeout.
  timeout_timer_.schedule_in(
      sim::Time::seconds(std::max(4.0 * srtt_s_, 0.5)));
}

void RapAgent::on_timeout() {
  if (!running_) return;
  // No ACKs for several RTTs: the path is badly congested (or the
  // bottleneck rate collapsed). Being rate-based, RAP has no ACK clock
  // to throttle it; it backs off multiplicatively once per timeout
  // period. This slow drain — compared to TCP's instant collapse to
  // the ACK rate — is exactly the transient the paper studies.
  ++stats_.timeouts;
  loss_event();
  timeout_timer_.schedule_in(sim::Time::seconds(std::max(4.0 * srtt_s_, 0.5)));
}

}  // namespace slowcc::cc
