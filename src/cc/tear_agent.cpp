#include "cc/tear_agent.hpp"

#include <algorithm>

namespace slowcc::cc {

TearSink::TearSink(sim::Simulator& sim, net::Node& local, double ewma_weight)
    : SinkBase(sim, local),
      feedback_timer_(sim, [this] { on_feedback_timer(); }),
      ewma_weight_(ewma_weight) {}

void TearSink::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kTearData) return;
  note_received(p);
  pkt_size_ = p.size_bytes;
  sender_rtt_ = p.rtt_estimate;

  const sim::Time rtt =
      sender_rtt_.is_zero() ? sim::Time::millis(100) : sender_rtt_;

  if (p.seq > expected_) {
    // Gap => loss. Coalesce losses within one RTT into one emulated
    // window halving, as TCP's fast recovery would.
    if (sim_.now() - last_loss_event_ > rtt) {
      cwnd_ = std::max(1.0, cwnd_ * 0.5);
      ssthresh_ = cwnd_;
      last_loss_event_ = sim_.now();
    }
    expected_ = p.seq + 1;
  } else if (p.seq == expected_) {
    ++expected_;
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;
    } else {
      cwnd_ += 1.0 / cwnd_;
    }
  }

  if (!saw_packet_) {
    saw_packet_ = true;
    send_feedback();
  }
}

void TearSink::on_feedback_timer() { send_feedback(); }

void TearSink::send_feedback() {
  if (!saw_packet_) return;
  const sim::Time rtt =
      sender_rtt_.is_zero() ? sim::Time::millis(100) : sender_rtt_;

  // Fold the current emulated window into the moving average once per
  // feedback round.
  if (!have_avg_) {
    cwnd_avg_ = cwnd_;
    have_avg_ = true;
  } else {
    cwnd_avg_ = (1.0 - ewma_weight_) * cwnd_avg_ + ewma_weight_ * cwnd_;
  }

  auto [h, fb] = make_reply(net::PacketType::kTearFeedback, kFeedbackSize);
  fb.feedback.receive_rate =
      cwnd_avg_ * static_cast<double>(pkt_size_) / rtt.as_seconds();
  send(h);

  feedback_timer_.schedule_in(rtt);
}

TearAgent::TearAgent(sim::Simulator& sim, net::Node& local,
                     net::NodeId peer_node, net::PortId peer_port,
                     net::FlowId flow)
    : Agent(sim, local, peer_node, peer_port, flow),
      send_timer_(sim, [this] { on_send_timer(); }),
      no_feedback_timer_(sim, [this] { on_no_feedback_timer(); }) {}

void TearAgent::start() {
  if (running_) return;
  running_ = true;
  rate_ = static_cast<double>(packet_size());  // one packet/sec to start
  schedule_next_send();
  no_feedback_timer_.schedule_in(sim::Time::seconds(2.0));
}

void TearAgent::stop() {
  running_ = false;
  send_timer_.cancel();
  no_feedback_timer_.cancel();
}

void TearAgent::schedule_next_send() {
  if (!running_) return;
  const double gap_s = static_cast<double>(packet_size()) / rate_;
  send_timer_.schedule_in(sim::Time::seconds(gap_s));
}

void TearAgent::on_send_timer() {
  if (!running_) return;
  auto [h, p] = make_packet(net::PacketType::kTearData);
  p.seq = next_seq_++;
  p.rtt_estimate = srtt();
  inject(h);
  schedule_next_send();
}

void TearAgent::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kTearFeedback || !running_) return;
  ++stats_.acks_received;

  const double sample = (sim_.now() - p.echo).as_seconds();
  if (!have_rtt_) {
    srtt_s_ = sample;
    have_rtt_ = true;
  } else {
    srtt_s_ = 0.9 * srtt_s_ + 0.1 * sample;
  }

  const double min_rate = static_cast<double>(packet_size()) / 64.0;
  const double old_rate = rate_;
  rate_ = std::max(p.feedback.receive_rate, min_rate);
  if (rate_ < old_rate) ++stats_.congestion_events;

  no_feedback_timer_.schedule_in(
      sim::Time::seconds(std::max(4.0 * srtt_s_, 0.5)));
}

void TearAgent::on_no_feedback_timer() {
  if (!running_) return;
  ++stats_.timeouts;
  rate_ = std::max(rate_ / 2.0, static_cast<double>(packet_size()) / 64.0);
  no_feedback_timer_.schedule_in(
      sim::Time::seconds(std::max(4.0 * srtt_s_, 0.5)));
}

}  // namespace slowcc::cc
