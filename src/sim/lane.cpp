#include "sim/lane.hpp"

#include <algorithm>
#include <cassert>

namespace slowcc::sim {

void Lane::grow_ring() {
  // Warm-up growth only: double (16 floor, so always a power of two)
  // and re-lay every entry at its position under the new mask.
  // slowcc-lint: allow(no-hot-path-alloc) ring growth is cold; steady state recycles slots
  std::vector<Entry> grown(std::max<std::size_t>(16, ring_.size() * 2));
  const std::uint64_t mask = grown.size() - 1;
  for (std::uint64_t pos = head_; pos != tail_; ++pos) {
    grown[pos & mask] = at_pos(pos);
  }
  ring_ = std::move(grown);
  mask_ = mask;
}

void Lane::revoke(LaneTicket ticket) {
  assert(ticket.lane == this);
  if (ticket.pos < head_ || ticket.pos >= tail_) return;
  if (at_pos(ticket.pos).ctx == nullptr) return;
  revoke_pos(ticket.pos);
}

void Lane::revoke_pos(std::uint64_t pos) {
  at_pos(pos).ctx = nullptr;
  --live_;
  --sim_.lane_pending_;
  // Only a revoked head moves the lane's key (or empties the lane).
  if (pos == head_) settle_head();
}

void Lane::append_times(std::size_t max_entries,
                        std::vector<Time>* out) const {
  std::size_t taken = 0;
  for (std::uint64_t pos = head_; pos != tail_ && taken < max_entries;
       ++pos) {
    const Entry& e = ring_[pos & mask_];
    if (e.ctx == nullptr) continue;
    out->push_back(Time::nanos(e.at_ns));
    ++taken;
  }
}

}  // namespace slowcc::sim
