#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "net/node.hpp"
#include "sim/error.hpp"

namespace slowcc::net {

Link::Link(sim::Simulator& sim, Node& from, Node& to, double bandwidth_bps,
           sim::Time propagation_delay, std::unique_ptr<Queue> queue)
    : sim_(sim),
      pool_(PacketPool::of(sim)),
      from_(from),
      to_(to),
      bandwidth_(bandwidth_bps),
      delay_(propagation_delay),
      queue_(std::move(queue)) {
  if (bandwidth_ <= 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "bandwidth must be positive");
  }
  if (delay_.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "propagation delay must be >= 0");
  }
  if (queue_ == nullptr) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link", "queue is required");
  }
  // Buffered handles live in the simulation-wide pool so they pass from
  // arrival through queue to delivery without a copy.
  queue_->attach_pool(&pool_);
}

Link::~Link() {
  cancel_completion();
  if (in_flight_h_.valid()) pool_.release(in_flight_h_);
  forget_transmit_lanes();
  if (wire_lane_ != nullptr) sim_.release_lane(*wire_lane_);
  // Deliveries still propagating sit in lanes other links share: take
  // them out so they never fire into a dead link, and free their slots.
  if (lane_deliveries_ != 0) {
    sim_.revoke_lane_entries(this, lane_deliveries_, &Link::lane_revoked);
  }
  // Deliveries on the engine (wire-model extra delays, duplicates) too.
  for (const EngineDelivery& d : engine_deliveries_) {
    sim_.cancel(d.id);
    pool_.release(d.h);
  }
}

namespace {

// A pooled handle as a lane entry's argument, and back.
std::uint64_t lane_arg(PacketHandle h) noexcept {
  return std::uint64_t{h.gen} << 32 | h.slot;
}

PacketHandle lane_handle(std::uint64_t arg) noexcept {
  return PacketHandle{static_cast<std::uint32_t>(arg),
                      static_cast<std::uint32_t>(arg >> 32)};
}

}  // namespace

void Link::lane_transmitted(void* ctx, std::uint64_t /*arg*/) {
  Link* const link = static_cast<Link*>(ctx);
  link->tx_ticket_ = sim::LaneTicket{};
  link->finish_transmission();
}

void Link::lane_delivered(void* ctx, std::uint64_t arg) {
  Link* const link = static_cast<Link*>(ctx);
  --link->lane_deliveries_;
  link->deliver_pooled(lane_handle(arg));
}

void Link::lane_revoked(void* ctx, std::uint64_t arg) {
  Link* const link = static_cast<Link*>(ctx);
  --link->lane_deliveries_;
  link->pool_.release(lane_handle(arg));
}

void Link::drop_packet(const Packet& p, DropReason reason) {
  switch (reason) {
    case DropReason::kOverflow:
      ++stats_.drops_overflow;
      break;
    case DropReason::kEarly:
      ++stats_.drops_early;
      break;
    case DropReason::kForced:
      ++stats_.drops_forced;
      break;
    case DropReason::kLinkDown:
      ++stats_.drops_link_down;
      break;
    case DropReason::kImpairment:
      ++stats_.drops_impairment;
      break;
  }
  for (auto* o : observers_) o->on_drop(p, reason);
}

void Link::enter(PacketHandle h, Packet& p) {
  ++stats_.arrivals;
  for (auto* o : observers_) o->on_arrival(p);

  if (!up_) {
    drop_packet(p, DropReason::kLinkDown);
    pool_.release(h);
    return;
  }

  if (forced_drop_ && forced_drop_(p)) {
    drop_packet(p, DropReason::kForced);
    pool_.release(h);
    return;
  }

  if (auto reason = queue_->enqueue(h, p)) {
    // Rejected handles stay with the caller: report the drop, then
    // return the packet to the pool.
    drop_packet(p, *reason);
    pool_.release(h);
    return;
  }

  if (!transmitting()) start_transmission();
}

void Link::start_transmission() {
  std::int64_t size_bytes = 0;
  const PacketHandle h = queue_->dequeue_handle(&size_bytes);
  if (!h.valid()) return;
  const TransmitMemo& tx = transmit_memo(size_bytes);
  in_flight_h_ = h;
  tx_ends_ = sim_.now() + tx.duration;
  // The lane entry stands in for a transmit-complete engine event; the
  // post mints its seq from the same engine counter, here, where the
  // reference link schedules one.
  tx_ticket_ = tx.lane->post(this, 0);
}

void Link::depart(PacketHandle h) {
  // `p` stays valid across the acquire below: the pool's chunked slabs
  // never move existing slots.
  Packet& p = pool_.get(h);

  WireVerdict verdict;
  if (wire_ != nullptr) verdict = wire_->on_wire(p);

  if (verdict.drop) {
    // Lost on the wire after occupying the transmitter: counted as a
    // drop instead of a departure so packet conservation still holds.
    drop_packet(p, DropReason::kImpairment);
    pool_.release(h);
    return;
  }

  ++stats_.departures;
  stats_.bytes_delivered += p.size_bytes;
  for (auto* o : observers_) o->on_depart(p);

  if (verdict.extra_delay > sim::Time()) ++stats_.reordered;
  if (verdict.duplicate) {
    ++stats_.duplicates;
    schedule_engine_delivery(
        pool_.acquire(p).handle,
        delay_ + verdict.extra_delay + verdict.duplicate_delay);
  }
  schedule_delivery(h, verdict.extra_delay);
}

const Link::TransmitMemo& Link::remember_transmit(std::int64_t size_bytes) {
  // Most recent first: the older entry gives up its lane.
  if (tx_memo_[1].lane != nullptr) sim_.release_lane(*tx_memo_[1].lane);
  tx_memo_[1] = tx_memo_[0];
  const sim::Time duration = sim::transmission_time(size_bytes, bandwidth_);
  tx_memo_[0] = TransmitMemo{
      size_bytes, duration,
      &sim_.acquire_lane(duration, &Link::lane_transmitted)};
  return tx_memo_[0];
}

void Link::forget_transmit_lanes() noexcept {
  for (TransmitMemo& memo : tx_memo_) {
    if (memo.lane != nullptr) sim_.release_lane(*memo.lane);
    memo = TransmitMemo{};
  }
}

void Link::schedule_delivery(PacketHandle h, sim::Time extra_delay) {
  if (extra_delay != sim::Time()) {
    // A wire-model extra delay is not a fixed duration: the engine
    // keeps the total order. The schedule mints the seq, exactly as
    // the lane post below does.
    schedule_engine_delivery(h, delay_ + extra_delay);
    return;
  }
  // The post mints the seq at the point an engine schedule would, so
  // the executed (at, seq) stream is the same whichever carries the
  // delivery.
  if (wire_lane_ == nullptr) {
    wire_lane_ = &sim_.acquire_lane(delay_, &Link::lane_delivered);
  }
  wire_lane_->post(this, lane_arg(h));
  ++lane_deliveries_;
}

void Link::schedule_engine_delivery(PacketHandle h, sim::Time after) {
  // Only wire-model fallbacks get here, and pops keep the capacity, so
  // the vector grows to the most deliveries pending at once, no further.
  // slowcc-lint: allow(no-hot-path-alloc) wire-model high-water growth
  engine_deliveries_.push_back(
      EngineDelivery{sim_.schedule_in(after, Deliver{this, h}), h});
}

void Link::engine_delivered(PacketHandle h) {
  for (EngineDelivery& d : engine_deliveries_) {
    if (d.h == h) {
      d = engine_deliveries_.back();
      engine_deliveries_.pop_back();
      break;
    }
  }
  deliver_pooled(h);
}

void Link::cancel_completion() {
  if (tx_ticket_.valid()) {
    tx_ticket_.lane->revoke(tx_ticket_);
    tx_ticket_ = sim::LaneTicket{};
  }
}

void Link::finish_transmission() {
  // The (at, seq) this completion executed under were minted when the
  // packet entered the transmitter (or was re-timed).
  const PacketHandle h = in_flight_h_;
  in_flight_h_ = PacketHandle{};
  depart(h);

  // A nested set_down() (from a drop/depart observer) may have drained
  // the queue; a nested set_up() and a new arrival may even have
  // restarted transmission. Only continue when the transmitter is
  // genuinely free.
  if (up_ && !transmitting() && !queue_->empty()) start_transmission();
}

void Link::deliver_pooled(PacketHandle h) { to_.deliver(h, pool_); }

void Link::set_bandwidth(double bandwidth_bps) {
  if (bandwidth_bps <= 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "set_bandwidth: bandwidth must be positive");
  }
  if (bandwidth_bps == bandwidth_) return;
  if (transmitting()) {
    // Keep the fraction already serialized; the remaining bits
    // continue at the new rate.
    const double remaining_s = (tx_ends_ - sim_.now()).as_seconds();
    const double remaining_bits = remaining_s * bandwidth_;
    const sim::Time rem = sim::Time::seconds(remaining_bits / bandwidth_bps);
    tx_ends_ = sim_.now() + rem;
    // The remainder goes into the lane of its own duration, held only
    // for this post: the live entry keeps the lane in use until it
    // fires. Revoking mints nothing; the post mints the seq where a
    // cancel plus reschedule would.
    cancel_completion();
    sim::Lane& lane = sim_.acquire_lane(rem, &Link::lane_transmitted);
    tx_ticket_ = lane.post(this, 0);
    sim_.release_lane(lane);
  }
  bandwidth_ = bandwidth_bps;
  // Transmission times memoized at the old rate no longer hold.
  forget_transmit_lanes();
  notify_state_change();
}

void Link::set_propagation_delay(sim::Time delay) {
  if (delay.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "set_propagation_delay: delay must be >= 0");
  }
  if (delay == delay_) return;
  delay_ = delay;
  // Later departures post into the new delay's lane; packets already
  // propagating keep firing from the old one.
  if (wire_lane_ != nullptr) {
    sim_.release_lane(*wire_lane_);
    wire_lane_ = nullptr;
  }
  notify_state_change();
}

void Link::set_down() {
  if (!up_) return;
  up_ = false;
  if (transmitting()) {
    cancel_completion();
    const PacketHandle h = in_flight_h_;
    in_flight_h_ = PacketHandle{};
    drop_packet(pool_.get(h), DropReason::kLinkDown);
    pool_.release(h);
  }
  for (PacketHandle h = queue_->dequeue_handle(); h.valid();
       h = queue_->dequeue_handle()) {
    drop_packet(pool_.get(h), DropReason::kLinkDown);
    pool_.release(h);
  }
  notify_state_change();
}

void Link::set_up() {
  if (up_) return;
  up_ = true;
  notify_state_change();
  if (!transmitting() && !queue_->empty()) start_transmission();
}

void Link::add_observer(LinkObserver* observer) {
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "add_observer: observer already registered");
  }
  observers_.push_back(observer);
}

void Link::remove_observer(LinkObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void Link::notify_state_change() {
  for (auto* o : observers_) o->on_state_change(*this);
}

}  // namespace slowcc::net
