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
/// grow, so a ring in post order is already in (at, seq) order. While
/// the lane holds live entries it keeps its head's (at, seq) key in the
/// Simulator's merge set, and it leaves the set when it empties, so
/// however many sources share it, the run loop's merge compares one key
/// per lane that can fire.
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
/// live (at, seq) of the lane; the lane is in the merge set exactly
/// while live() > 0.
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

  explicit Lane(Simulator& sim) : sim_(sim) {}

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
  // Skip tombstones at the head, then write the new head's key, or
  // leave the merge set when nothing live is left.
  void settle_head();
  // Take the merge set's last slot, under `key` (live_ just left 0).
  void join_merge(Simulator::LaneKey key) noexcept;
  // Give up this lane's merge slot to the set's last member.
  void leave_merge() noexcept;
  // Tombstone the live entry at `pos`.
  void revoke_pos(std::uint64_t pos);
  // Append the fire times of up to `max_entries` live entries.
  void append_times(std::size_t max_entries, std::vector<Time>* out) const;

  Simulator& sim_;
  // This lane's slot in the Simulator's merge set while live_ > 0.
  std::size_t merge_slot_ = 0;
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
  // An empty lane has no tombstones left, so the new entry is its head
  // and the lane joins the merge under its key; otherwise the head keeps
  // its key.
  if (live_++ == 0) join_merge(Simulator::lane_key(e.at_ns, e.seq));
  ++sim_.lane_pending_;
  return LaneTicket{this, pos};
}

inline void Lane::join_merge(Simulator::LaneKey key) noexcept {
  merge_slot_ = sim_.merging_++;
  sim_.merge_keys_[merge_slot_] = key;
  sim_.merge_lanes_[merge_slot_] = this;
}

inline void Lane::leave_merge() noexcept {
  // Swap-remove: the last member (this lane itself when it is last)
  // moves into the freed slot. Every key carries a unique seq, so the
  // merge's minimum does not depend on the members' order.
  const std::size_t last = --sim_.merging_;
  Lane* const moved = sim_.merge_lanes_[last];
  sim_.merge_keys_[merge_slot_] = sim_.merge_keys_[last];
  sim_.merge_lanes_[merge_slot_] = moved;
  moved->merge_slot_ = merge_slot_;
}

inline void Lane::settle_head() {
  while (head_ != tail_ && at_pos(head_).ctx == nullptr) ++head_;
  if (live_ == 0) {
    leave_merge();
    return;
  }
  const Entry& head = at_pos(head_);
  sim_.merge_keys_[merge_slot_] = Simulator::lane_key(head.at_ns, head.seq);
}

inline void Lane::fire_head() {
  // Pop and settle the new head before the callback: it may post into
  // this lane (or revoke from it) reentrantly, and the merge set must
  // already describe the new head when it does.
  const Entry e = at_pos(head_);
  ++head_;
  --live_;
  --sim_.lane_pending_;
  settle_head();
  fire_(e.ctx, e.arg);
}

}  // namespace slowcc::sim
