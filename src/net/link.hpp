#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_filter.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/lane.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {

class Node;
class Link;

/// Observer hooks for per-link instrumentation (loss monitors,
/// throughput monitors, traces). Observers must outlive the link or
/// detach with `Link::remove_observer` first.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  /// A packet arrived at the link (before the admission decision).
  virtual void on_arrival(const Packet& /*p*/) {}
  /// The packet was rejected (queue drop, scripted loss, down link,
  /// or wire impairment).
  virtual void on_drop(const Packet& /*p*/, DropReason /*reason*/) {}
  /// The packet finished serialization and left toward the peer.
  virtual void on_depart(const Packet& /*p*/) {}
  /// The link's operating parameters changed (bandwidth, propagation
  /// delay, or up/down state). Inspect the link for the new values.
  virtual void on_state_change(const Link& /*link*/) {}
};

/// Verdict of a wire impairment model for one departing packet.
struct WireVerdict {
  bool drop = false;          // lose the packet on the wire
  bool duplicate = false;     // deliver a second copy as well
  sim::Time extra_delay;      // added propagation delay (reordering)
  sim::Time duplicate_delay;  // additional delay of the duplicate copy
};

/// Stochastic impairment applied between serialization and delivery:
/// bursty loss, reordering, duplication. `fault::WireImpairment` is
/// the standard implementation; tests may supply their own.
class WireModel {
 public:
  virtual ~WireModel() = default;
  [[nodiscard]] virtual WireVerdict on_wire(const Packet& p) = 0;
};

/// Running totals a link keeps about itself.
struct LinkStats {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_early = 0;
  std::uint64_t drops_forced = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t drops_impairment = 0;
  std::uint64_t duplicates = 0;  // extra copies injected on the wire
  std::uint64_t reordered = 0;   // packets delivered with extra wire delay
  std::int64_t bytes_delivered = 0;

  [[nodiscard]] std::uint64_t drops_total() const noexcept {
    return drops_overflow + drops_early + drops_forced + drops_link_down +
           drops_impairment;
  }

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

/// A unidirectional serial link: queue -> transmitter -> wire.
///
/// Serialization takes `size * 8 / bandwidth`; the packet then
/// propagates for `delay` before being delivered to the destination
/// node. Self-clocking of window-based transports emerges from these
/// two stages, exactly as on a real path.
///
/// Links are dynamic: bandwidth, propagation delay, and up/down state
/// may change mid-run (see the `fault::FaultInjector`). Semantics:
///  * `set_bandwidth` re-times the packet currently in the
///    transmitter — its already-serialized fraction is kept and the
///    remaining bytes continue at the new rate.
///  * `set_propagation_delay` applies to departures after the change;
///    packets already propagating keep the delay they left with.
///  * `set_down` drops the in-flight packet and the whole queue with
///    `DropReason::kLinkDown` and rejects arrivals until `set_up`.
///    Packets already propagating were past the failure point and
///    still deliver.
///
/// Packets live in the simulation's PacketPool and move as 8-byte
/// handles (DESIGN.md §14). A transmit-complete is posted into the
/// simulation's shared lane for its transmission time, and an in-flight
/// delivery into the lane for the propagation delay (sim::Lane: one
/// FIFO per fixed duration, shared by every link of the simulation), so
/// a whole topology's pipeline fires through a handful of armed chains.
/// A transmission re-timed mid-flight posts its remainder into the lane
/// of that duration, held for the one post. A wire-model extra delay or
/// duplicate falls back to an engine event: as lane entries, each
/// would hold a lane of its own in the run loop's merge set for a whole
/// propagation delay.
///
/// Packets come onto a link one way: `Node::deliver` at its source node
/// routes them in. `tests/reference_link.hpp` is the by-value,
/// one-engine-event-per-transition oracle the differential tests diff
/// this class against; both mint the same (at, seq) event stream, and
/// the oracle acquires its packets into the pool only as it delivers.
class Link {
 public:
  Link(sim::Simulator& sim, Node& from, Node& to, double bandwidth_bps,
       sim::Time propagation_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Revokes this link's pending transmit and deliveries (lane entries
  /// and engine fallbacks alike) and returns their packets to the pool
  /// (links always die before the Simulator they reference).
  ~Link();

  [[nodiscard]] double bandwidth_bps() const noexcept { return bandwidth_; }
  [[nodiscard]] sim::Time propagation_delay() const noexcept { return delay_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Queue& queue() noexcept { return *queue_; }
  [[nodiscard]] const Queue& queue() const noexcept { return *queue_; }
  [[nodiscard]] Node& from() noexcept { return from_; }
  [[nodiscard]] Node& to() noexcept { return to_; }

  // -- dynamic reconfiguration (fault injection) --------------------

  /// Change the serialization rate; must be > 0. Takes effect
  /// immediately: an in-flight packet's remaining bytes are re-timed
  /// at the new rate.
  void set_bandwidth(double bandwidth_bps);

  /// Change the propagation delay; must be >= 0. Applies to packets
  /// departing after the change.
  void set_propagation_delay(sim::Time delay);

  /// Take the link down (see class comment). Idempotent.
  void set_down();

  /// Restore a downed link. Idempotent.
  void set_up();

  [[nodiscard]] bool is_up() const noexcept { return up_; }

  /// True while a packet occupies the transmitter.
  [[nodiscard]] bool transmitting() const noexcept {
    return in_flight_h_.valid();
  }

  /// Install a stochastic wire impairment (nullptr clears). The model
  /// must outlive the link or be cleared first; the link does not own
  /// it.
  void set_wire_model(WireModel* model) noexcept { wire_ = model; }
  [[nodiscard]] WireModel* wire_model() const noexcept { return wire_; }

  // -- observers ----------------------------------------------------

  /// Register an observer. Throws `sim::SimError` (kBadConfig) if it
  /// is already registered — double registration would double-count
  /// every monitor's statistics.
  void add_observer(LinkObserver* observer);

  /// Unregister an observer; harmless no-op if it is not registered.
  void remove_observer(LinkObserver* observer);

  /// Install a deterministic drop filter, used by the smoothness
  /// experiments to impose scripted loss patterns. Returning true
  /// drops the packet before it reaches the queue. Accepts any
  /// callable (see PacketFilter); pass {} or nullptr to clear.
  void set_forced_drop_filter(PacketFilter filter) {
    forced_drop_ = std::move(filter);
  }

 private:
  friend class Node;

  // The link's one entry: Node::deliver hands over `h` once it has
  // checked it, with `p` the pooled packet behind it, so a packet is
  // looked up once per hop. Ownership of `h` passes to the link; on
  // drop the link releases it.
  void enter(PacketHandle h, Packet& p);

  // Engine delivery closure (a wire-model extra delay or a duplicate):
  // 16 bytes, trivially copyable, so scheduling it never leaves
  // std::function's inline buffer.
  struct Deliver {
    Link* link;
    PacketHandle h;
    void operator()() const { link->engine_delivered(h); }
  };

  // A delivery pending on the engine, so ~Link can cancel it.
  struct EngineDelivery {
    sim::EventId id;
    PacketHandle h;
  };

  // A transmission time and its lane, for one packet size at the
  // current bandwidth.
  struct TransmitMemo {
    std::int64_t size_bytes = -1;
    sim::Time duration;
    sim::Lane* lane = nullptr;
  };

  void start_transmission();
  void finish_transmission();  // depart, then start the next
  // Revoke the pending transmit-complete's lane ticket.
  void cancel_completion();
  // Lane callbacks (ctx is the Link).
  static void lane_transmitted(void* ctx, std::uint64_t arg);
  static void lane_delivered(void* ctx, std::uint64_t arg);
  static void lane_revoked(void* ctx, std::uint64_t arg);
  [[nodiscard]] const TransmitMemo& transmit_memo(std::int64_t size_bytes) {
    if (tx_memo_[0].size_bytes == size_bytes) return tx_memo_[0];
    if (tx_memo_[1].size_bytes == size_bytes) return tx_memo_[1];
    return remember_transmit(size_bytes);
  }
  const TransmitMemo& remember_transmit(std::int64_t size_bytes);
  void forget_transmit_lanes() noexcept;
  void depart(PacketHandle h);  // wire verdict + delivery scheduling
  void schedule_delivery(PacketHandle h, sim::Time extra_delay);
  void schedule_engine_delivery(PacketHandle h, sim::Time after);
  void engine_delivered(PacketHandle h);
  void deliver_pooled(PacketHandle h);
  void drop_packet(const Packet& p, DropReason reason);
  void notify_state_change();

  sim::Simulator& sim_;
  PacketPool& pool_;
  Node& from_;
  Node& to_;
  double bandwidth_;
  sim::Time delay_;
  std::unique_ptr<Queue> queue_;
  std::vector<LinkObserver*> observers_;
  PacketFilter forced_drop_;
  WireModel* wire_ = nullptr;
  LinkStats stats_;
  bool up_ = true;

  // Transmitter state, kept here (not in an event closure) so
  // bandwidth changes and link failures can re-time or drop it: the
  // packet's handle and its completion's ticket in a transmit lane.
  PacketHandle in_flight_h_;
  sim::LaneTicket tx_ticket_;
  sim::Time tx_ends_;

  // Lanes this link points at: the transmit lanes of the two
  // most recent packet sizes (cleared by set_bandwidth) and, once a
  // packet has propagated, the lane of the current delay_ (dropped by
  // set_propagation_delay). Both are taken on first use, not at
  // construction.
  std::array<TransmitMemo, 2> tx_memo_;
  sim::Lane* wire_lane_ = nullptr;
  // This link's deliveries pending in lanes (any delay it has had), so
  // ~Link knows whether it has entries to revoke.
  std::size_t lane_deliveries_ = 0;
  // This link's deliveries pending as engine events. Only a wire model
  // puts any here, and few at a time, so a fire finds its entry by a
  // short scan.
  std::vector<EngineDelivery> engine_deliveries_;
};

}  // namespace slowcc::net
