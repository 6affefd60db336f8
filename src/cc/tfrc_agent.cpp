#include "cc/tfrc_agent.hpp"

#include <algorithm>
#include <cmath>

#include "cc/response_function.hpp"

namespace slowcc::cc {

TfrcAgent::TfrcAgent(sim::Simulator& sim, net::Node& local,
                     net::NodeId peer_node, net::PortId peer_port,
                     net::FlowId flow, const TfrcConfig& config)
    : Agent(sim, local, peer_node, peer_port, flow),
      config_(config),
      send_timer_(sim, [this] { on_send_timer(); }),
      no_feedback_timer_(sim, [this] { on_no_feedback_timer(); }) {}

double TfrcAgent::min_rate() const noexcept {
  return static_cast<double>(packet_size()) / config_.t_mbi;
}

void TfrcAgent::start() {
  if (running_) return;
  running_ = true;
  // Initial rate: one packet per second until the first feedback
  // establishes an RTT (the spec's initial window of one packet). The
  // first packet goes out immediately so the first feedback — and the
  // jump to one packet per RTT — arrives one RTT from now.
  rate_ = static_cast<double>(packet_size());
  send_timer_.schedule_in(sim::Time());
  no_feedback_timer_.schedule_in(sim::Time::seconds(2.0));
}

void TfrcAgent::stop() {
  running_ = false;
  send_timer_.cancel();
  no_feedback_timer_.cancel();
}

void TfrcAgent::schedule_next_send() {
  if (!running_) return;
  const double gap_s = static_cast<double>(packet_size()) / rate_;
  send_timer_.schedule_in(sim::Time::seconds(gap_s));
}

void TfrcAgent::on_send_timer() {
  if (!running_) return;
  auto [h, p] = make_packet(net::PacketType::kTfrcData);
  p.seq = next_seq_++;
  p.rtt_estimate = srtt();
  inject(h);
  schedule_next_send();
}

void TfrcAgent::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kTfrcFeedback || !running_) return;
  ++stats_.acks_received;

  // RTT update.
  const double sample = (sim_.now() - p.echo - p.feedback.delay).as_seconds();
  if (!have_rtt_) {
    srtt_s_ = sample;
    have_rtt_ = true;
    // First feedback: jump to one packet per RTT.
    rate_ = std::max(rate_, static_cast<double>(packet_size()) /
                                std::max(srtt_s_, 1e-4));
  } else {
    srtt_s_ = config_.rtt_weight * srtt_s_ +
              (1.0 - config_.rtt_weight) * sample;
  }

  const double p_loss = p.feedback.loss_event_rate;
  const double x_recv = p.feedback.receive_rate;

  if (p_loss <= 0.0 && slow_start_) {
    // Loss-free slow start: double per feedback, bounded by twice the
    // receive rate (the cap the paper notes "emulates TCP's slow-start
    // phase"). The very first report can carry no rate measurement
    // (zero elapsed time at the receiver); skip the cap then.
    const double cap = x_recv > 0.0 ? 2.0 * x_recv : 2.0 * rate_;
    rate_ = std::max(std::min(2.0 * rate_, cap), min_rate());
  } else {
    if (p_loss > 0.0) slow_start_ = false;
    const double x_calc = padhye_rate_bytes_per_sec(
        std::max(p_loss, 1e-8), sim::Time::seconds(srtt_s_), packet_size());

    double cap;
    if (config_.conservative) {
      // The paper's pseudo-code (§4.1.1):
      //   if loss reported:       SEND_RATE = min(CALC, RECV)
      //   else if not slow-start: SEND_RATE = min(CALC, C × RECV)
      cap = p.feedback.loss_seen ? x_recv : config_.conservative_c * x_recv;
    } else {
      cap = 2.0 * x_recv;  // spec default
    }
    const double old_rate = rate_;
    rate_ = std::max(std::min(x_calc, cap), min_rate());
    if (rate_ < old_rate) ++stats_.congestion_events;
  }

  restart_no_feedback_timer();
}

void TfrcAgent::restart_no_feedback_timer() {
  // Spec: max(4 R, 2 s / X) seconds.
  const double r = have_rtt_ ? srtt_s_ : 0.5;
  const double interval =
      std::max(4.0 * r, 2.0 * static_cast<double>(packet_size()) / rate_);
  no_feedback_timer_.schedule_in(sim::Time::seconds(interval));
}

void TfrcAgent::on_no_feedback_timer() {
  if (!running_) return;
  // No feedback for several RTTs: halve the allowed rate.
  ++stats_.timeouts;
  rate_ = std::max(rate_ / 2.0, min_rate());
  restart_no_feedback_timer();
}

}  // namespace slowcc::cc
