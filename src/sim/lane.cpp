#include "sim/lane.hpp"

#include <algorithm>
#include <cassert>

namespace slowcc::sim {

Lane::Lane(Simulator& sim) : sim_(sim) {
  chain_.fire = &Lane::fire_thunk;
  chain_.ctx = this;
}

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

void Lane::settle_head() {
  while (head_ != tail_ && at_pos(head_).ctx == nullptr) ++head_;
  if (live_ == 0) {
    sim_.disarm_chain(&chain_);
    return;
  }
  const Entry& head = at_pos(head_);
  sim_.retime_chain(&chain_, Time::nanos(head.at_ns), head.seq, live_);
}

void Lane::fire_head() {
  // Pop and re-key before the callback: it may post into this lane (or
  // revoke from it) reentrantly, and the chain must already describe
  // the new head when it does.
  const Entry e = at_pos(head_);
  ++head_;
  --live_;
  settle_head();
  fire_(e.ctx, e.arg);
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
  if (pos == head_) {
    settle_head();
  } else {
    sim_.retime_chain(&chain_, chain_.at, chain_.seq, live_);
  }
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
