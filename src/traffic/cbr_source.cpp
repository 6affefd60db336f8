#include "traffic/cbr_source.hpp"

#include "sim/error.hpp"


namespace slowcc::traffic {

CbrSource::CbrSource(sim::Simulator& sim, net::Node& local,
                     net::NodeId peer_node, net::PortId peer_port,
                     net::FlowId flow, double rate_bps)
    : Agent(sim, local, peer_node, peer_port, flow),
      send_timer_(sim, [this] { on_send_timer(); }),
      rate_bps_(rate_bps) {
  if (rate_bps < 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "CbrSource",
                        "rate must be >= 0");
  }
}

void CbrSource::start() {
  if (running_) return;
  running_ = true;
  schedule_next_send();
}

void CbrSource::stop() {
  running_ = false;
  send_timer_.cancel();
}

void CbrSource::set_rate_bps(double rate_bps) {
  if (rate_bps < 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "CbrSource",
                        "rate must be >= 0");
  }
  const bool was_paused = rate_bps_ <= 0.0;
  rate_bps_ = rate_bps;
  if (running_ && was_paused && rate_bps_ > 0.0) schedule_next_send();
  if (rate_bps_ <= 0.0) send_timer_.cancel();
}

void CbrSource::schedule_next_send() {
  if (!running_ || rate_bps_ <= 0.0) return;
  const double gap_s =
      static_cast<double>(packet_size()) * 8.0 / rate_bps_;
  send_timer_.schedule_in(sim::Time::seconds(gap_s));
}

void CbrSource::on_send_timer() {
  if (!running_ || rate_bps_ <= 0.0) return;
  auto [h, p] = make_packet(net::PacketType::kCbr);
  p.seq = next_seq_++;
  inject(h);
  schedule_next_send();
}

void CbrSource::handle_packet(const net::Packet& /*p*/) {
  // CBR is open-loop: any packet addressed here is ignored.
}

}  // namespace slowcc::traffic
