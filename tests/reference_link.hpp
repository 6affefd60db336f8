#pragma once

// Reference link: the differential oracle for net::Link.
//
// The by-value packet path written down directly: packets go through
// the queue by value (queue_values.hpp), the transmitter holds the packet
// being serialized, and every transmit-complete, delivery and
// duplicate is its own engine event whose closure carries the packet.
// It mints seqs at exactly the points net::Link posts a lane entry or
// schedules an engine fallback, so the two execute one (at, seq) event
// stream. Its entry is its own: packets arrive by value, and each
// enters the simulation's pool only as it is delivered, through
// Node::deliver's handle entry. Slow and obviously correct on purpose;
// only tests/packet_path_diff.hpp and tests/test_packet_path_diff.cpp
// use it.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_filter.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "queue_values.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {

class ReferenceLink {
 public:
  ReferenceLink(sim::Simulator& sim, net::Node& /*from*/, net::Node& to,
                double bandwidth_bps, sim::Time propagation_delay,
                std::unique_ptr<net::Queue> queue)
      : sim_(sim),
        pool_(net::PacketPool::of(sim)),
        to_(to),
        bandwidth_(bandwidth_bps),
        delay_(propagation_delay),
        queue_(std::move(queue)) {
    queue_->attach_pool(&pool_);
  }

  ReferenceLink(const ReferenceLink&) = delete;
  ReferenceLink& operator=(const ReferenceLink&) = delete;

  // Cancels the transmit-complete and every pending delivery, so none
  // fires into a dead link; the packets die with their closures.
  ~ReferenceLink() {
    sim_.cancel(tx_event_);
    for (const auto& [key, id] : deliveries_) sim_.cancel(id);
  }

  void send(const net::Packet& p) {
    ++stats_.arrivals;
    if (!up_) return drop(net::DropReason::kLinkDown);
    if (forced_drop_ && forced_drop_(p)) return drop(net::DropReason::kForced);
    if (auto reason = enqueue_value(*queue_, p)) {
      return drop(*reason);
    }
    if (!transmitting()) start_transmission();
  }

  void set_bandwidth(double bandwidth_bps) {
    if (bandwidth_bps == bandwidth_) return;
    if (transmitting()) {
      const double remaining_bits =
          (tx_ends_ - sim_.now()).as_seconds() * bandwidth_;
      const sim::Time rem = sim::Time::seconds(remaining_bits / bandwidth_bps);
      tx_ends_ = sim_.now() + rem;
      sim_.cancel(tx_event_);
      tx_event_ = sim_.schedule_in(rem, [this] { transmit_complete(); });
    }
    bandwidth_ = bandwidth_bps;
  }

  void set_propagation_delay(sim::Time delay) { delay_ = delay; }

  void set_down() {
    if (!up_) return;
    up_ = false;
    if (transmitting()) {
      sim_.cancel(tx_event_);
      in_flight_.reset();
      drop(net::DropReason::kLinkDown);
    }
    while (dequeue_value(*queue_)) drop(net::DropReason::kLinkDown);
  }

  void set_up() {
    if (up_) return;
    up_ = true;
    if (!transmitting()) start_transmission();
  }

  void set_wire_model(net::WireModel* model) noexcept { wire_ = model; }
  void set_forced_drop_filter(net::PacketFilter filter) {
    forced_drop_ = std::move(filter);
  }

  [[nodiscard]] const net::LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Queue& queue() noexcept { return *queue_; }
  [[nodiscard]] const net::Queue& queue() const noexcept { return *queue_; }
  [[nodiscard]] bool transmitting() const noexcept {
    return in_flight_.has_value();
  }

 private:
  void drop(net::DropReason reason) {
    switch (reason) {
      case net::DropReason::kOverflow: ++stats_.drops_overflow; break;
      case net::DropReason::kEarly: ++stats_.drops_early; break;
      case net::DropReason::kForced: ++stats_.drops_forced; break;
      case net::DropReason::kLinkDown: ++stats_.drops_link_down; break;
      case net::DropReason::kImpairment: ++stats_.drops_impairment; break;
    }
  }

  void start_transmission() {
    in_flight_ = dequeue_value(*queue_);
    if (!in_flight_) return;
    const sim::Time tx =
        sim::transmission_time(in_flight_->size_bytes, bandwidth_);
    tx_ends_ = sim_.now() + tx;
    tx_event_ = sim_.schedule_in(tx, [this] { transmit_complete(); });
  }

  void transmit_complete() {
    tx_event_ = sim::EventId{};
    net::Packet p = std::move(*in_flight_);
    in_flight_.reset();
    net::WireVerdict verdict;
    if (wire_ != nullptr) verdict = wire_->on_wire(p);
    if (verdict.drop) {
      drop(net::DropReason::kImpairment);
    } else {
      ++stats_.departures;
      stats_.bytes_delivered += p.size_bytes;
      if (verdict.extra_delay > sim::Time()) ++stats_.reordered;
      if (verdict.duplicate) {
        ++stats_.duplicates;
        deliver_after(delay_ + verdict.extra_delay + verdict.duplicate_delay,
                      p);
      }
      deliver_after(delay_ + verdict.extra_delay, std::move(p));
    }
    if (up_ && !transmitting()) start_transmission();
  }

  void deliver_after(sim::Time after, net::Packet p) {
    const std::uint64_t key = next_delivery_++;
    deliveries_[key] =
        sim_.schedule_in(after, [this, key, q = std::move(p)] {
          deliveries_.erase(key);
          to_.deliver(pool_.acquire(q).handle, pool_);
        });
  }

  sim::Simulator& sim_;
  net::PacketPool& pool_;
  net::Node& to_;
  double bandwidth_;
  sim::Time delay_;
  std::unique_ptr<net::Queue> queue_;
  net::PacketFilter forced_drop_;
  net::WireModel* wire_ = nullptr;
  net::LinkStats stats_;
  bool up_ = true;
  std::optional<net::Packet> in_flight_;
  sim::EventId tx_event_;
  sim::Time tx_ends_;
  // Pending deliveries by a local key, so ~ReferenceLink can cancel them.
  std::map<std::uint64_t, sim::EventId> deliveries_;
  std::uint64_t next_delivery_ = 0;
};

}  // namespace slowcc::test
