#include "cc/tcp_sink.hpp"

#include <algorithm>

namespace slowcc::cc {

TcpSink::TcpSink(sim::Simulator& sim, net::Node& local)
    : SinkBase(sim, local), delack_timer_(sim, [this] { on_delack_timer(); }) {
  out_of_order_.reserve(kReorderReserve);
}

void TcpSink::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  note_received(p);
  last_ecn_ = p.ecn_marked;

  bool in_order = false;
  if (p.seq == next_expected_) {
    in_order = true;
    ++next_expected_;
    // Drain any previously buffered out-of-order segments (sorted
    // ascending, so the run to consume is a prefix).
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == next_expected_) {
      ++next_expected_;
      ++it;
    }
    out_of_order_.erase(out_of_order_.begin(), it);
  } else if (p.seq > next_expected_) {
    const auto pos =
        std::lower_bound(out_of_order_.begin(), out_of_order_.end(), p.seq);
    if (pos == out_of_order_.end() || *pos != p.seq) {
      out_of_order_.insert(pos, p.seq);  // slowcc-lint: allow(no-hot-path-alloc) capacity reserved at flow setup; shifts, no alloc
    }
  }
  // p.seq < next_expected_: spurious retransmission; still ACKed (a
  // duplicate cumulative ACK), as real TCP does.

  if (delayed_acks_ && in_order && out_of_order_.empty()) {
    if (ack_pending_) {
      // Second in-order segment: acknowledge both now.
      send_ack();
    } else {
      ack_pending_ = true;
      delack_timer_.schedule_in(kDelackTimeout);
    }
    return;
  }
  // Immediate-ACK mode, out-of-order data, or a hole just filled:
  // acknowledge right away so the sender's loss detection stays sharp.
  send_ack();
}

void TcpSink::on_delack_timer() {
  if (ack_pending_) send_ack();
}

void TcpSink::send_ack() {
  ack_pending_ = false;
  delack_timer_.cancel();

  auto [h, ack] = make_reply(net::PacketType::kAck, ack_size_);
  ack.seq = next_expected_;
  ack.ecn_marked = last_ecn_;
  ++acks_sent_;
  send(h);
}

}  // namespace slowcc::cc
