#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace slowcc::sim {

class Lane;

/// Names one entry posted into a Lane. Positions count the lane's posts
/// and are never reused, so a ticket stays valid across ring growth
/// and a ticket whose entry already fired or was revoked is recognised
/// as such.
struct LaneTicket {
  Lane* lane = nullptr;
  std::uint64_t pos = 0;

  [[nodiscard]] bool valid() const noexcept { return lane != nullptr; }
};

/// A fixed-delay FIFO of pending events shared by every source that
/// schedules with the same delay and the same callback (DESIGN.md
/// §14.3). An entry posted at now() + d for one fixed d can never fire
/// before an entry posted earlier: now() never decreases and seqs only
/// grow, so a ring in post order is already in (at, seq) order. The
/// lane keeps its head's (at, seq) key in the Simulator's lane-key
/// array (the +infinity key while it is empty), so however many
/// sources share it, the run loop's merge compares one key per lane.
///
/// Lanes are owned by their Simulator and handed out by
/// Simulator::acquire_lane, which counts the sources pointing at each
/// lane; a lane that no source points at and that holds no live entry
/// is idle and gets re-purposed by the next acquire_lane, so a run that
/// keeps changing its delays does not keep growing the lane table.
///
/// Invariants: the ring holds entries in post order between `head_` and
/// `tail_`; a revoked entry becomes a tombstone (ctx == nullptr) and the
/// head is always a live entry, so the lane's key is always the earliest
/// live (at, seq) of the lane.
class Lane {
 public:
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// The fixed delay every entry of this lane fires after.
  [[nodiscard]] Time duration() const noexcept { return duration_; }

  /// Entries posted and not yet fired or revoked.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Schedule `fire(ctx, arg)` at now() + duration(). The seq is minted
  /// here, at exactly the point an engine schedule would mint it, so the
  /// executed (at, seq) stream does not depend on which carries the
  /// event. `ctx` must not be null (null marks a tombstone).
  LaneTicket post(void* ctx, std::uint64_t arg);

  /// Drop the entry `ticket` names. A no-op when it already fired or was
  /// revoked.
  void revoke(LaneTicket ticket);

 private:
  friend class Simulator;

  struct Entry {
    std::int64_t at_ns = 0;
    std::uint64_t seq = 0;
    void* ctx = nullptr;  // nullptr: revoked
    std::uint64_t arg = 0;
  };

  Lane(Simulator& sim, std::size_t index) : sim_(sim), index_(index) {}

  [[nodiscard]] bool in_use() const noexcept {
    return refs_ != 0 || live_ != 0;
  }
  [[nodiscard]] Entry& at_pos(std::uint64_t pos) noexcept {
    return ring_[pos & mask_];
  }
  // Warm-up growth: double the ring, keeping every entry at its
  // position (so tickets stay valid).
  void grow_ring();
  // Pop the head and call its callback (the run loop's lane event).
  void fire_head();
  // Skip tombstones at the head, then write the new head's key, or the
  // empty key when nothing live is left.
  void settle_head();
  // Tombstone the live entry at `pos`.
  void revoke_pos(std::uint64_t pos);
  // Append the fire times of up to `max_entries` live entries.
  void append_times(std::size_t max_entries, std::vector<Time>* out) const;

  Simulator& sim_;
  // This lane's slot in the Simulator's lanes_ and lane_keys_.
  std::size_t index_;
  Time duration_;
  LaneFire fire_ = nullptr;
  // Power-of-two ring indexed by position & mask_; positions in
  // [head_, tail_) are pending.
  std::vector<Entry> ring_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  std::size_t live_ = 0;
  // Sources pointing at this lane (Simulator::acquire_lane /
  // release_lane).
  std::size_t refs_ = 0;
};

inline LaneTicket Lane::post(void* ctx, std::uint64_t arg) {
  assert(ctx != nullptr);
  if (tail_ - head_ == ring_.size()) grow_ring();
  const std::uint64_t pos = tail_++;
  Entry& e = at_pos(pos);
  const Time at = sim_.now() + duration_;
  e.at_ns = at.as_nanos();
  e.seq = sim_.mint_event_seq();
  e.ctx = ctx;
  e.arg = arg;
  // An empty lane has no tombstones left, so the new entry is its head;
  // otherwise the head keeps its key.
  if (live_++ == 0) {
    sim_.lane_keys_[index_] = Simulator::lane_key(e.at_ns, e.seq);
  }
  ++sim_.lane_pending_;
  return LaneTicket{this, pos};
}

}  // namespace slowcc::sim
