#pragma once

// Reference scheduler: the differential oracle for sim::EventQueue.
//
// An ordered map keyed on (at, seq) is the (at, seq) contract written
// down directly: begin() is always the next event, and FIFO order at
// equal times falls out of the key. An id carries its own key, so
// cancel is one erase and a fired, cancelled or default id simply
// finds nothing. reschedule is that erase plus a re-insert of the same
// callback under a fresh seq, and it rewrites the caller's id to the
// new key (EventQueue's id keeps its value). Slow and obviously correct
// on purpose; only tests/engine_diff.hpp uses it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace slowcc::test {

class ReferenceScheduler {
 public:
  using Callback = std::function<void()>;
  struct Id {
    std::int64_t at_ns = 0;
    std::uint64_t seq = 0;  // 0 never names an event
  };

  Id schedule(sim::Time at, Callback cb) {
    const Id id{at.as_nanos(), next_seq_++};
    events_.emplace(Key{id.at_ns, id.seq}, std::move(cb));
    return id;
  }

  bool cancel(Id id) { return events_.erase(Key{id.at_ns, id.seq}) == 1; }

  bool reschedule(Id& id, sim::Time at) {
    const auto it = events_.find(Key{id.at_ns, id.seq});
    if (it == events_.end()) return false;
    Callback cb = std::move(it->second);
    events_.erase(it);
    id = schedule(at, std::move(cb));
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  [[nodiscard]] sim::Time next_time() const {
    return sim::Time::nanos(front("next_time").first);
  }

  [[nodiscard]] Callback pop(sim::PoppedEvent* out) {
    const Key key = front("pop");
    const auto it = events_.begin();
    Callback cb = std::move(it->second);
    events_.erase(it);
    if (out != nullptr) {
      *out = sim::PoppedEvent{sim::Time::nanos(key.first), key.second};
    }
    return cb;
  }

  [[nodiscard]] std::vector<sim::Time> pending_times(
      std::size_t max_entries) const {
    std::vector<sim::Time> times;
    for (const auto& [key, cb] : events_) {
      if (times.size() == max_entries) break;
      times.push_back(sim::Time::nanos(key.first));
    }
    return times;
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at_ns, seq)

  [[nodiscard]] Key front(const char* op) const {
    if (events_.empty()) {
      throw sim::SimError(sim::SimErrc::kBadSchedule, "ReferenceScheduler",
                          std::string(op) + " on an empty queue");
    }
    return events_.begin()->first;
  }

  std::map<Key, Callback> events_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace slowcc::test
