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
      queue_(std::move(queue)),
      path_(default_packet_path()) {
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
  // Every link-owned queue reports occupancy to the simulation's
  // resource governor; the hooks are no-ops until a budget is armed.
  queue_->attach_governor(&sim_.governor());
  // Buffered handles live in the simulation-wide pool so they pass from
  // arrival through queue to delivery without a copy.
  queue_->attach_pool(&pool_);
  chain_.fire = &Link::drain_thunk;
  chain_.ctx = this;
  wire_chain_.fire = &Link::wire_thunk;
  wire_chain_.ctx = this;
}

Link::~Link() {
  sim_.disarm_chain(&chain_);
  sim_.disarm_chain(&wire_chain_);
  if (in_flight_h_.valid()) pool_.release(in_flight_h_);
  while (wire_count_ != 0) pool_.release(wire_pop().h);
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

void Link::send(Packet&& p) {
  if (path_ == PacketPath::kPooled) {
    send(pool_.acquire(std::move(p)));
    return;
  }
  ++stats_.arrivals;
  for (auto* o : observers_) o->on_arrival(p);

  if (!up_) {
    drop_packet(p, DropReason::kLinkDown);
    return;
  }

  if (forced_drop_ && forced_drop_(p)) {
    drop_packet(p, DropReason::kForced);
    return;
  }

  if (auto reason = queue_->enqueue(std::move(p))) {
    // NOTE: `p` was moved into enqueue, but the queue only consumes the
    // packet on success; on failure it rejects before moving, so the
    // observer payload stays valid.
    drop_packet(p, *reason);
    return;
  }

  if (!transmitting()) start_transmission();
}

void Link::send(PacketHandle h) {
  if (path_ == PacketPath::kScalar) {
    // A pooled upstream forwarding into a scalar link (mixed-mode
    // simulations): fall back to the value path.
    send(pool_.take(h));
    return;
  }
  ++stats_.arrivals;
  {
    const Packet& p = pool_.get(h);
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
  }

  if (auto reason = queue_->enqueue(h)) {
    // Rejected handles stay with the caller: report the drop, then
    // return the packet to the pool.
    drop_packet(pool_.get(h), *reason);
    pool_.release(h);
    return;
  }

  if (!transmitting()) start_transmission();
}

void Link::start_transmission() {
  if (path_ == PacketPath::kPooled) {
    std::int64_t size_bytes = 0;
    const PacketHandle h = queue_->dequeue_handle(&size_bytes);
    if (!h.valid()) return;
    const sim::Time tx = sim::transmission_time(size_bytes, bandwidth_);
    in_flight_h_ = h;
    tx_ends_ = sim_.now() + tx;
    // The drain chain stands in for the transmit-complete event the
    // scalar path would schedule here; minting its seq from the same
    // engine counter keeps the executed (at, seq) stream identical.
    key_chain(chain_, tx_ends_, sim_.mint_event_seq(), 1);
    return;
  }
  auto head = queue_->dequeue();
  if (!head) return;
  const sim::Time tx = sim::transmission_time(head->size_bytes, bandwidth_);
  in_flight_ = std::move(*head);
  tx_ends_ = sim_.now() + tx;
  tx_event_ = sim_.schedule_in(tx, [this] { on_transmit_complete(); });
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
    Packet copy = p;
    const PacketHandle dup = pool_.acquire(std::move(copy));
    sim_.schedule_in(delay_ + verdict.extra_delay + verdict.duplicate_delay,
                     Deliver{this, dup});
  }
  schedule_delivery(h, sim_.now() + delay_ + verdict.extra_delay);
}

void Link::schedule_delivery(PacketHandle h, sim::Time at) {
  if (wire_count_ != 0 &&
      at < wire_ring_[(wire_head_ + wire_count_ - 1) & wire_mask_].at) {
    // Non-FIFO delivery (propagation delay shrunk mid-flight, or a
    // wire-model extra delay shorter than an earlier one): the engine
    // keeps the total order. The schedule mints the seq, exactly as
    // the chain path does explicitly below.
    sim_.schedule_in(at - sim_.now(), Deliver{this, h});
    return;
  }
  // The seq is minted here — the point where the scalar path would
  // have scheduled the delivery event — so the executed (at, seq)
  // stream is bit-identical whichever path carries the delivery.
  wire_push(WireEntry{at, sim_.mint_event_seq(), h});
  const WireEntry& head = wire_ring_[wire_head_];
  key_chain(wire_chain_, head.at, head.seq, wire_count_);
}

void Link::key_chain(sim::ChainedEvent& chain, sim::Time at,
                     std::uint64_t seq, std::uint64_t pending) {
  if (chain.armed()) {
    sim_.retime_chain(&chain, at, seq, pending);
    return;
  }
  chain.at = at;
  chain.seq = seq;
  chain.pending = pending;
  sim_.arm_chain(&chain);
}

void Link::wire_push(const WireEntry& entry) {
  if (wire_count_ == wire_ring_.size()) {
    // Warm-up growth only: double (16 floor, so always a power of two)
    // and re-lay from the head.
    // slowcc-lint: allow(no-hot-path-alloc) ring growth is cold; steady state recycles slots
    std::vector<WireEntry> grown(
        std::max<std::size_t>(16, wire_ring_.size() * 2));
    for (std::size_t i = 0; i < wire_count_; ++i) {
      grown[i] = wire_ring_[(wire_head_ + i) & wire_mask_];
    }
    wire_ring_ = std::move(grown);
    wire_mask_ = wire_ring_.size() - 1;
    wire_head_ = 0;
  }
  wire_ring_[(wire_head_ + wire_count_) & wire_mask_] = entry;
  ++wire_count_;
}

Link::WireEntry Link::wire_pop() {
  const WireEntry entry = wire_ring_[wire_head_];
  wire_head_ = (wire_head_ + 1) & wire_mask_;
  --wire_count_;
  return entry;
}

void Link::wire_step() {
  // Pop and re-arm before delivering: the handler may reentrantly
  // inject traffic, and the chain must already describe the new head
  // (or be disarmed) when it does.
  const WireEntry entry = wire_pop();
  if (wire_count_ != 0) {
    const WireEntry& head = wire_ring_[wire_head_];
    sim_.retime_chain(&wire_chain_, head.at, head.seq, wire_count_);
  } else {
    sim_.disarm_chain(&wire_chain_);
  }
  deliver_pooled(entry.h);
}

void Link::drain_step() {
  // One chained sub-event: finish the in-flight packet, then either
  // re-arm the chain in place for the next queued packet or let it go
  // quiet. The (at, seq) this step executed under were minted when the
  // packet entered the transmitter, exactly where the scalar path
  // scheduled its transmit-complete event.
  const PacketHandle h = in_flight_h_;
  in_flight_h_ = PacketHandle{};
  depart(h);

  // A nested set_down() (from a drop/depart observer) may have drained
  // the queue and disarmed the chain; a nested set_up()+send may even
  // have restarted transmission. Only continue the burst when the
  // transmitter is genuinely free.
  if (up_ && !transmitting() && !queue_->empty()) {
    start_transmission();  // re-keys the chain in place
  } else if (!transmitting()) {
    sim_.disarm_chain(&chain_);
  }
}

void Link::deliver_pooled(PacketHandle h) { to_.deliver(h, pool_); }

void Link::on_transmit_complete() {
  tx_event_ = sim::EventId{};
  Packet p = std::move(*in_flight_);
  in_flight_.reset();

  WireVerdict verdict;
  if (wire_ != nullptr) verdict = wire_->on_wire(p);

  if (verdict.drop) {
    // Lost on the wire after occupying the transmitter: counted as a
    // drop instead of a departure so packet conservation still holds.
    drop_packet(p, DropReason::kImpairment);
  } else {
    ++stats_.departures;
    stats_.bytes_delivered += p.size_bytes;
    for (auto* o : observers_) o->on_depart(p);

    if (verdict.extra_delay > sim::Time()) ++stats_.reordered;
    if (verdict.duplicate) {
      ++stats_.duplicates;
      Packet copy = p;
      sim_.schedule_in(
          delay_ + verdict.extra_delay + verdict.duplicate_delay,
          [this, q = std::move(copy)]() mutable { to_.deliver(std::move(q)); });
    }
    sim_.schedule_in(delay_ + verdict.extra_delay,
                     [this, q = std::move(p)]() mutable {
                       to_.deliver(std::move(q));
                     });
  }

  if (!queue_->empty()) start_transmission();
}

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
    if (path_ == PacketPath::kPooled) {
      // Re-key the chain in place. The seq is re-minted because the
      // scalar path cancels + reschedules here — same counter draw.
      sim_.retime_chain(&chain_, tx_ends_, sim_.mint_event_seq(), 1);
    } else {
      sim_.cancel(tx_event_);
      tx_event_ = sim_.schedule_in(rem, [this] { on_transmit_complete(); });
    }
  }
  bandwidth_ = bandwidth_bps;
  notify_state_change();
}

void Link::set_propagation_delay(sim::Time delay) {
  if (delay.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "set_propagation_delay: delay must be >= 0");
  }
  if (delay == delay_) return;
  delay_ = delay;
  notify_state_change();
}

void Link::set_down() {
  if (!up_) return;
  up_ = false;
  if (transmitting()) {
    if (path_ == PacketPath::kPooled) {
      sim_.disarm_chain(&chain_);
      const PacketHandle h = in_flight_h_;
      in_flight_h_ = PacketHandle{};
      drop_packet(pool_.get(h), DropReason::kLinkDown);
      pool_.release(h);
    } else {
      sim_.cancel(tx_event_);
      tx_event_ = sim::EventId{};
      Packet p = std::move(*in_flight_);
      in_flight_.reset();
      drop_packet(p, DropReason::kLinkDown);
    }
  }
  while (auto head = queue_->dequeue()) {
    drop_packet(*head, DropReason::kLinkDown);
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
