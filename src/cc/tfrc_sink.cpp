#include "cc/tfrc_sink.hpp"

#include <algorithm>

namespace slowcc::cc {

TfrcSink::TfrcSink(sim::Simulator& sim, net::Node& local, int history_n)
    : SinkBase(sim, local),
      history_(history_n),
      feedback_timer_(sim, [this] { on_feedback_timer(); }) {
  window_.resize(kWindowReserve);
}

void TfrcSink::window_push(sim::Time t, std::int64_t bytes) {
  if (win_count_ == window_.size()) {
    // Cold path: a 2x-RTT burst outgrew the setup-time reservation.
    // Re-linearize into a doubled ring; amortized O(1) per packet.
    std::vector<std::pair<sim::Time, std::int64_t>> bigger(window_.size() * 2);
    for (std::size_t i = 0; i < win_count_; ++i) {
      bigger[i] = window_[(win_head_ + i) % window_.size()];
    }
    window_ = std::move(bigger);
    win_head_ = 0;
  }
  window_[(win_head_ + win_count_) % window_.size()] = {t, bytes};
  ++win_count_;
}

void TfrcSink::window_evict_older_than(sim::Time horizon_start) {
  while (win_count_ != 0 && window_[win_head_].first < horizon_start) {
    win_head_ = (win_head_ + 1) % window_.size();
    --win_count_;
  }
}

sim::Time TfrcSink::rate_window() const {
  // Measure the receive rate over about one RTT, but never less than
  // 50 ms so a handful of back-to-back packets can't fake a huge rate.
  return std::max(sender_rtt_, sim::Time::millis(50));
}

double TfrcSink::receive_rate_bytes_per_sec() const {
  if (win_count_ == 0) return 0.0;
  const sim::Time w = rate_window();
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < win_count_; ++i) {
    const auto& [t, b] = window_[(win_head_ + i) % window_.size()];
    if (sim_.now() - t <= w) bytes += b;
  }
  return static_cast<double>(bytes) / w.as_seconds();
}

void TfrcSink::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kTfrcData) return;
  note_received(p);
  sender_rtt_ = p.rtt_estimate;
  data_since_feedback_ = true;

  window_push(sim_.now(), p.size_bytes);
  window_evict_older_than(sim_.now() - rate_window() * 2.0);

  const bool new_event = history_.on_packet(p.seq, sim_.now(), p.rtt_estimate);
  if (new_event) loss_since_feedback_ = true;

  if (!saw_packet_) {
    saw_packet_ = true;
    // First packet: report immediately so the sender learns the RTT.
    send_feedback();
  } else if (new_event) {
    // Expedited feedback on a fresh loss event.
    send_feedback();
  }
}

void TfrcSink::on_feedback_timer() {
  if (!saw_packet_) return;
  if (!data_since_feedback_) {
    // Nothing arrived: a report now would carry X_recv ~ 0 and starve
    // the sender permanently. Stay silent; the sender's no-feedback
    // timer handles a genuinely dead path.
    feedback_timer_.schedule_in(rate_window());
    return;
  }
  send_feedback();
}

void TfrcSink::send_feedback() {
  auto [h, fb] = make_reply(net::PacketType::kTfrcFeedback, kFeedbackSize);
  fb.feedback.loss_event_rate = history_.loss_event_rate();
  fb.feedback.receive_rate = receive_rate_bytes_per_sec();
  // "Loss reported" means a loss event began within the last RTT — not
  // merely since the previous report. Expedited reports would otherwise
  // consume the flag and let the very next periodic report claim a
  // loss-free RTT in the middle of persistent congestion, defeating the
  // conservative option's receive-rate cap.
  fb.feedback.loss_seen =
      history_.loss_events() > 0 &&
      sim_.now() - history_.last_event_start() <= rate_window();
  send(h);

  data_since_feedback_ = false;
  loss_since_feedback_ = false;

  // Next periodic report one (sender-estimated) RTT from now.
  feedback_timer_.schedule_in(rate_window());
}

}  // namespace slowcc::cc
