#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "sim/error.hpp"

namespace slowcc::sim {
namespace {

// Per-thread state: the construct observer slot and the cumulative
// event counter. thread_local keeps concurrent sweep workers fully
// independent — one worker's trial deadline never leaks into another.
thread_local Simulator::ConstructObserver t_construct_observer;
thread_local std::uint64_t t_events_executed = 0;

// Strict (at, seq) order of the chain heap. Seqs come from one counter,
// so no two armed chains ever compare equal.
bool chain_before(const ChainedEvent* a, const ChainedEvent* b) noexcept {
  return a->at < b->at || (a->at == b->at && a->seq < b->seq);
}

}  // namespace

Simulator::Simulator() {
  if (t_construct_observer) {
    // Swap the slot out while the observer runs so an observer that
    // constructs helper Simulators cannot recurse into itself.
    ConstructObserver observer;
    observer.swap(t_construct_observer);
    try {
      observer(*this);
    } catch (...) {
      observer.swap(t_construct_observer);
      throw;
    }
    observer.swap(t_construct_observer);
  }
}

std::uint64_t Simulator::thread_events_executed() noexcept {
  return t_events_executed;
}

void Simulator::set_thread_construct_observer(ConstructObserver observer) {
  if (observer && t_construct_observer) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_thread_construct_observer: slot already occupied "
                   "on this thread (clear it with nullptr first)");
  }
  t_construct_observer = std::move(observer);
}

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  if (at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_at: time in the past (" + at.to_string() + " < " +
                       now_.to_string() + ")");
  }
  return queue_.schedule(at, std::move(cb));
}

EventId Simulator::schedule_in(Time delay, EventQueue::Callback cb) {
  if (delay.is_negative()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_in: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(cb));
}

void Simulator::set_event_hook(std::uint64_t every_events,
                               EventQueue::Callback hook) {
  if (every_events == 0 || hook == nullptr) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: need every_events >= 1 and a callable");
  }
  if (hook_every_ != 0) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: hook slot already occupied "
                   "(clear_event_hook first)");
  }
  hook_every_ = every_events;
  hook_ = std::move(hook);
}

void Simulator::arm_chain(ChainedEvent* chain) {
  if (chain == nullptr || chain->fire == nullptr) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: null chain or fire callback");
  }
  if (chain->at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: time in the past (" + chain->at.to_string() +
                       " < " + now_.to_string() + ")");
  }
  if (chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: chain already armed (re-key it with "
                   "retime_chain instead)");
  }
  // At most two chains per link (transmit + wire FIFO): the heap tops
  // out at twice the topology's link count, not at the packet count.
  chains_.push_back(chain);  // slowcc-lint: allow(no-hot-path-alloc) bounded by link count, not packet count
  chain_pending_ += chain->pending;
  sift_up(chains_.size() - 1);
}

void Simulator::disarm_chain(ChainedEvent* chain) noexcept {
  if (!chain->armed()) return;
  const std::size_t slot = chain->heap_slot;
  assert(slot < chains_.size() && chains_[slot] == chain);
  chain->heap_slot = ChainedEvent::kNotArmed;
  chain_pending_ -= chain->pending;
  ChainedEvent* last = chains_.back();
  chains_.pop_back();
  if (last == chain) return;
  // Refill the hole with the last leaf and restore the heap around it.
  chains_[slot] = last;
  sift_up(slot);
  sift_down(last->heap_slot);
}

void Simulator::retime_chain(ChainedEvent* chain, Time at, std::uint64_t seq,
                             std::uint64_t pending) {
  if (!chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "retime_chain: chain not armed (arm_chain first)");
  }
  if (at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "retime_chain: time in the past (" + at.to_string() +
                       " < " + now_.to_string() + ")");
  }
  chain_pending_ = chain_pending_ - chain->pending + pending;
  chain->pending = pending;
  chain->at = at;
  chain->seq = seq;
  sift_up(chain->heap_slot);
  sift_down(chain->heap_slot);
}

void Simulator::sift_up(std::size_t slot) noexcept {
  ChainedEvent* const c = chains_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!chain_before(c, chains_[parent])) break;
    chains_[slot] = chains_[parent];
    chains_[slot]->heap_slot = slot;
    slot = parent;
  }
  chains_[slot] = c;
  c->heap_slot = slot;
}

void Simulator::sift_down(std::size_t slot) noexcept {
  ChainedEvent* const c = chains_[slot];
  const std::size_t n = chains_.size();
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && chain_before(chains_[child + 1], chains_[child])) {
      ++child;
    }
    if (!chain_before(chains_[child], c)) break;
    chains_[slot] = chains_[child];
    chains_[slot]->heap_slot = slot;
    slot = child;
  }
  chains_[slot] = c;
  c->heap_slot = slot;
}

std::vector<Time> Simulator::pending_event_times(
    std::size_t max_entries) const {
  std::vector<Time> times = queue_.pending_times(max_entries);
  if (!chains_.empty()) {
    for (const ChainedEvent* c : chains_) times.push_back(c->at);
    std::sort(times.begin(), times.end());
    if (times.size() > max_entries) times.resize(max_entries);
  }
  return times;
}

void Simulator::run() { run_until(Time::max()); }

void Simulator::run_until(Time deadline) {
  for (;;) {
    // Pick the global minimum by (at, seq) between the engine head and
    // the chain heap's top. Seqs are minted from one per-queue
    // counter, so the pair is a strict total order and the executed
    // stream — what trace_digest() folds — is independent of whether a
    // departure runs as an engine event or a chained sub-event.
    ChainedEvent* const chain = chains_.empty() ? nullptr : chains_.front();
    const bool engine_live = !queue_.empty();
    if (!engine_live && chain == nullptr) break;
    bool use_chain;
    PoppedEvent head;
    if (engine_live) {
      head = queue_.peek();
      use_chain = chain != nullptr &&
                  (chain->at < head.at ||
                   (chain->at == head.at && chain->seq < head.seq));
    } else {
      use_chain = true;
    }
    const Time t = use_chain ? chain->at : head.at;
    if (t > deadline) break;
    if (event_budget_ != 0 &&
        events_executed_ - event_budget_base_ >= event_budget_) {
      throw SimError(
          SimErrc::kDeadlineExceeded, "Simulator",
          "event budget exhausted (" + std::to_string(event_budget_) +
              " events since armed; clock " + now_.to_string() + ", " +
              std::to_string(pending_events()) + " pending)");
    }
    assert(t >= now_);
    if (use_chain) {
      now_ = chain->at;
      ++events_executed_;
      ++t_events_executed;
      trace_digest_ =
          fnv1a_u64(fnv1a_u64(trace_digest_,
                              static_cast<std::uint64_t>(chain->at.as_nanos())),
                    chain->seq);
      // fire() may re-key the chain in place (next packet of the burst)
      // or disarm it (queue drained / link down).
      chain->fire(chain->ctx);
    } else {
      PoppedEvent ev;
      auto cb = queue_.pop(&ev);
      now_ = ev.at;
      ++events_executed_;
      ++t_events_executed;
      trace_digest_ =
          fnv1a_u64(fnv1a_u64(trace_digest_,
                              static_cast<std::uint64_t>(ev.at.as_nanos())),
                    ev.seq);
      cb();
    }
    // Poll after the callback so events and packets it just created are
    // charged to it. pending_events() counts live engine events plus
    // armed chains — logical state, identical across the batched/scalar
    // packet paths.
    if (governor_.armed()) governor_.poll(pending_events());
    if (hook_every_ != 0 && events_executed_ % hook_every_ == 0) hook_();
  }
  if (deadline != Time::max() && now_ < deadline) now_ = deadline;
}

}  // namespace slowcc::sim
