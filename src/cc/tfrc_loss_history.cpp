#include "cc/tfrc_loss_history.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace slowcc::cc {

TfrcLossHistory::TfrcLossHistory(int n) : n_(n) {
  if (n < 1) throw sim::SimError(sim::SimErrc::kBadConfig, "TfrcLossHistory",
                                 "n must be >= 1");
  weights_ = weights(n);
}

std::vector<double> TfrcLossHistory::weights(int n) {
  // TFRC draft weights: w_i = min(1, 2(n-i)/(n+2)), newest first.
  // n = 8 -> {1,1,1,1,0.8,0.6,0.4,0.2}.
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] =
        std::min(1.0, 2.0 * static_cast<double>(n - i) /
                          static_cast<double>(n + 2));
  }
  return w;
}

double TfrcLossHistory::current_discount() const {
  // History discounting (TFRC spec §5.5, simplified): once the open
  // loss-free interval exceeds twice the average of the closed history,
  // old intervals lose weight proportionally, letting the loss estimate
  // track a genuinely improved network quickly even with a long memory.
  if (!discounting_ || intervals_.empty() || event_start_seq_ < 0) return 1.0;
  const double open = static_cast<double>(expected_ - event_start_seq_);
  const double base = weighted_average(/*include_open=*/false);
  if (base <= 0.0 || open <= 2.0 * base) return 1.0;
  return std::max(kMinDiscount, 2.0 * base / open);
}

bool TfrcLossHistory::on_packet(std::int64_t seq, sim::Time now,
                                sim::Time sender_rtt) {
  bool new_event = false;

  if (seq >= expected_) {
    // Gap [expected_, seq) lost.
    for (std::int64_t missing = expected_; missing < seq; ++missing) {
      ++losses_;
      const bool starts_event =
          total_events_ == 0 ||
          (now - event_start_time_) > std::max(sender_rtt, sim::Time::millis(1));
      if (starts_event) {
        if (total_events_ > 0) {
          // Close the previous interval: sequence distance between the
          // first losses of consecutive events. Any history discount
          // earned by the (now closed) open interval resets here: when
          // losses resume, the estimator's full n-interval memory
          // returns. This reset is what makes a long-memory TFRC(k)
          // slow to re-learn congestion after good times — the paper's
          // §4.1 persistent-loss behavior.
          intervals_.push_front(
              static_cast<double>(missing - event_start_seq_));
          if (intervals_.size() > static_cast<std::size_t>(n_)) {
            intervals_.pop_back();
          }
        }
        event_start_seq_ = missing;
        event_start_time_ = now;
        ++total_events_;
        new_event = true;
      }
    }
    expected_ = seq + 1;
    ++packets_;
  }
  // seq < expected_: duplicate/late — impossible on FIFO paths; ignore.

  return new_event;
}

double TfrcLossHistory::weighted_average(bool include_open) const {
  const std::vector<double>& w = weights_;
  double num = 0.0;
  double den = 0.0;
  std::size_t wi = 0;

  // The live discount applies to closed intervals only while the open
  // interval keeps growing; it resets when the next loss event begins.
  const double live_df = include_open ? current_discount_for_average() : 1.0;

  if (include_open && event_start_seq_ >= 0) {
    const double open = static_cast<double>(expected_ - event_start_seq_);
    num += w[wi] * open;
    den += w[wi];
    ++wi;
  }
  for (double interval : intervals_) {
    if (wi >= w.size()) break;
    num += w[wi] * live_df * interval;
    den += w[wi] * live_df;
    ++wi;
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

double TfrcLossHistory::current_discount_for_average() const {
  // current_discount() itself calls weighted_average(false); that call
  // passes live_df = 1, so the recursion terminates immediately.
  return current_discount();
}

double TfrcLossHistory::average_interval() const {
  if (total_events_ == 0) return 0.0;
  const double with_open = weighted_average(/*include_open=*/true);
  const double without_open = weighted_average(/*include_open=*/false);
  return std::max(with_open, without_open);
}

double TfrcLossHistory::loss_event_rate() const {
  const double avg = average_interval();
  if (avg <= 0.0) return 0.0;
  return std::min(1.0, 1.0 / avg);
}

}  // namespace slowcc::cc
