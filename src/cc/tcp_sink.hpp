#pragma once

#include <cstdint>
#include <vector>

#include "cc/agent.hpp"
#include "sim/timer.hpp"

namespace slowcc::cc {

/// TCP receiver: generates cumulative ACKs for data segments.
///
/// By default every segment is acknowledged immediately (the paper's
/// TCPs run without delayed acknowledgments). With
/// `set_delayed_acks(true)` the sink follows RFC 1122 delayed-ACK
/// rules: acknowledge every second in-order segment, or after
/// `delack_timeout` (default 200 ms), and immediately on out-of-order
/// arrivals (so fast retransmit still sees prompt dup ACKs).
///
/// Tracks out-of-order segments so the cumulative ACK advances over
/// holes filled by retransmissions. ACKs echo the data packet's
/// timestamp for RTT sampling and its ECN mark for congestion echo.
class TcpSink final : public SinkBase {
 public:
  TcpSink(sim::Simulator& sim, net::Node& local);

  void handle_packet(const net::Packet& p) override;

  /// Next sequence number expected in order.
  [[nodiscard]] std::int64_t next_expected() const noexcept {
    return next_expected_;
  }

  /// ACK size on the wire, bytes (default 40).
  void set_ack_size(std::int64_t bytes) noexcept { ack_size_ = bytes; }

  /// Enable RFC 1122 delayed acknowledgments (default off, matching
  /// the paper: "TCP without delayed acknowledgments").
  void set_delayed_acks(bool on) noexcept { delayed_acks_ = on; }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }

 private:
  void send_ack();
  void on_delack_timer();

  static constexpr std::size_t kReorderReserve = 256;

  std::int64_t next_expected_ = 0;
  // Out-of-order segments, kept sorted ascending. A vector reserved at
  // flow setup: per-segment insert/erase touch contiguous memory and
  // never allocate until a reorder burst outgrows the reservation (a
  // full sender window fits several times over).
  std::vector<std::int64_t> out_of_order_;
  std::int64_t ack_size_ = 40;

  bool delayed_acks_ = false;
  static constexpr sim::Time kDelackTimeout = sim::Time::millis(200);
  sim::Timer delack_timer_;
  bool ack_pending_ = false;   // one unacknowledged in-order segment held
  std::uint64_t acks_sent_ = 0;

  bool last_ecn_ = false;  // ECN mark of the latest data packet
};

}  // namespace slowcc::cc
