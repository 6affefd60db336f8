#pragma once

// Differential test harness: sim::EventQueue against the reference
// scheduler in reference_scheduler.hpp.
//
// A DiffScript is a flat list of schedule/cancel/reschedule/pop/peek
// operations. run_script<Engine>() executes one through a fresh queue
// and renders every observable (pop order with the callback each pop
// ran, peek results, cancel and reschedule outcomes, live size,
// pending_times, empty-queue throws) into a canonical log string;
// diff_engines() runs the same script through both and, when the logs
// differ, delta-debugs the script down to a minimal failing core and
// returns a report embedding it. Property tests feed this with
// randomized 10k-op scripts seeded via sim::Rng.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {

struct DiffOp {
  enum class Kind : std::uint8_t {
    kSchedule,
    kCancel,
    kReschedule,
    kPop,
    kPeek
  };
  Kind kind = Kind::kSchedule;
  std::int64_t at_ns = 0;  // kSchedule, kReschedule: absolute timestamp
  std::size_t target = 0;  // kCancel, kReschedule: index into ids minted
};

using DiffScript = std::vector<DiffOp>;

/// Execute `script` on a fresh `Engine` and render everything
/// observable into a log. Two engines agree iff their logs are equal.
template <typename Engine>
std::string run_script(const DiffScript& script) {
  Engine engine;
  using Id = decltype(engine.schedule(sim::Time{}, [] {}));
  std::vector<Id> ids;
  std::ostringstream log;
  std::uint64_t executed = 0;
  // Each callback stamps the index of the schedule that installed it,
  // so a pop also shows whose callback it ran (a reschedule must keep
  // its event's callback).
  std::size_t ran = 0;
  for (const DiffOp& op : script) {
    switch (op.kind) {
      case DiffOp::Kind::kSchedule: {
        const std::size_t tag = ids.size();
        ids.push_back(engine.schedule(sim::Time::nanos(op.at_ns),
                                      [&ran, tag] { ran = tag; }));
        break;
      }
      case DiffOp::Kind::kCancel: {
        Id id{};  // stays invalid when nothing was scheduled yet
        if (!ids.empty()) id = ids[op.target % ids.size()];
        log << "cancel=" << (engine.cancel(id) ? 1 : 0) << "\n";
        break;
      }
      case DiffOp::Kind::kReschedule: {
        Id none{};  // stays invalid when nothing was scheduled yet
        Id& id = ids.empty() ? none : ids[op.target % ids.size()];
        log << "reschedule="
            << (engine.reschedule(id, sim::Time::nanos(op.at_ns)) ? 1 : 0)
            << "\n";
        break;
      }
      case DiffOp::Kind::kPop:
        try {
          sim::PoppedEvent ev;
          engine.pop(&ev)();
          ++executed;
          log << "pop=" << ev.at.as_nanos() << "/" << ev.seq << "#" << ran
              << "\n";
        } catch (const sim::SimError&) {
          log << "pop=throw\n";
        }
        break;
      case DiffOp::Kind::kPeek:
        try {
          log << "peek=" << engine.next_time().as_nanos() << "\n";
        } catch (const sim::SimError&) {
          log << "peek=throw\n";
        }
        break;
    }
    log << "size=" << engine.size() << "\n";
  }
  log << "executed=" << executed << "\n";
  log << "pending=";
  for (sim::Time t : engine.pending_times(32)) log << t.as_nanos() << ",";
  log << "\n";
  // Drain whatever is left so the scripts' full execution order is
  // compared even when the script itself pops little.
  while (engine.size() > 0) {
    sim::PoppedEvent ev;
    engine.pop(&ev)();
    log << "drain=" << ev.at.as_nanos() << "/" << ev.seq << "#" << ran
        << "\n";
  }
  return log.str();
}

/// Render a script as re-runnable pseudo-code for failure reports.
inline std::string render_script(const DiffScript& script) {
  std::ostringstream out;
  for (const DiffOp& op : script) {
    switch (op.kind) {
      case DiffOp::Kind::kSchedule:
        out << "  schedule(at_ns=" << op.at_ns << ")\n";
        break;
      case DiffOp::Kind::kCancel:
        out << "  cancel(target=" << op.target << ")\n";
        break;
      case DiffOp::Kind::kReschedule:
        out << "  reschedule(target=" << op.target << ", at_ns=" << op.at_ns
            << ")\n";
        break;
      case DiffOp::Kind::kPop:
        out << "  pop()\n";
        break;
      case DiffOp::Kind::kPeek:
        out << "  peek()\n";
        break;
    }
  }
  return out.str();
}

inline bool engines_disagree(const DiffScript& script) {
  return run_script<ReferenceScheduler>(script) !=
         run_script<sim::EventQueue>(script);
}

/// ddmin-style shrink: repeatedly delete chunks of the script while the
/// queue/reference disagreement persists, halving the chunk size until
/// even single-op removals no longer help.
inline DiffScript shrink_script(DiffScript failing) {
  std::size_t chunk = std::max<std::size_t>(1, failing.size() / 2);
  for (;;) {
    bool removed = false;
    std::size_t start = 0;
    while (start < failing.size()) {
      DiffScript candidate(failing);
      candidate.erase(
          candidate.begin() + static_cast<std::ptrdiff_t>(start),
          candidate.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(failing.size(), start + chunk)));
      if (!candidate.empty() && engines_disagree(candidate)) {
        failing = std::move(candidate);
        removed = true;  // retry the same offset at the new layout
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed) return failing;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
}

/// Empty string when EventQueue and the reference agree on `script`;
/// otherwise a failure report containing the shrunken minimal script
/// and both logs.
inline std::string diff_engines(const DiffScript& script) {
  if (!engines_disagree(script)) return {};
  const DiffScript minimal = shrink_script(script);
  std::ostringstream out;
  out << "EventQueue disagrees with the reference scheduler; minimal "
      << "script (" << minimal.size() << " of " << script.size()
      << " ops):\n"
      << render_script(minimal) << "--- reference log ---\n"
      << run_script<ReferenceScheduler>(minimal)
      << "--- EventQueue log ---\n"
      << run_script<sim::EventQueue>(minimal);
  return out.str();
}

/// Randomized script: schedules dominate, with exponentially
/// distributed delays (nanoseconds to days, so heaps of mixed depth
/// and far-future entries see traffic), deliberate equal-time ties
/// (FIFO order must hold), and a time base that drifts forward so later
/// schedules land behind events already popped. Reschedules move their
/// target earlier or later than its current time in equal shares, or
/// onto the latest scheduled time (a tie behind its peers).
inline DiffScript random_script(std::uint64_t seed, std::size_t num_ops) {
  sim::Rng rng(seed);
  DiffScript script;
  script.reserve(num_ops);
  std::int64_t base = 0;
  std::int64_t last_at = 0;
  std::vector<std::int64_t> times;  // each minted id's current time
  const auto exp_delta = [&rng] {
    const auto magnitude = static_cast<int>(rng.uniform_int(49));
    return static_cast<std::int64_t>(
        rng.uniform_int(std::uint64_t{1} << magnitude));
  };
  for (std::size_t i = 0; i < num_ops; ++i) {
    const double roll = rng.uniform();
    DiffOp op;
    if (roll < 0.45 || times.empty()) {
      op.kind = DiffOp::Kind::kSchedule;
      if (!times.empty() && rng.chance(0.2)) {
        op.at_ns = last_at;  // exact tie
      } else {
        op.at_ns = base + exp_delta();
      }
      last_at = op.at_ns;
      times.push_back(op.at_ns);
    } else if (roll < 0.58) {
      op.kind = DiffOp::Kind::kCancel;
      op.target = static_cast<std::size_t>(rng.uniform_int(times.size()));
    } else if (roll < 0.70) {
      op.kind = DiffOp::Kind::kReschedule;
      op.target = static_cast<std::size_t>(rng.uniform_int(times.size()));
      std::int64_t& current = times[op.target];
      if (rng.chance(0.2)) {
        op.at_ns = last_at;
      } else if (rng.chance(0.5)) {
        op.at_ns = std::max<std::int64_t>(0, current - exp_delta());
      } else {
        op.at_ns = current + exp_delta();
      }
      current = op.at_ns;
    } else if (roll < 0.95) {
      op.kind = DiffOp::Kind::kPop;
      if (rng.chance(0.5)) {
        base += static_cast<std::int64_t>(rng.uniform_int(1u << 20));
      }
    } else {
      op.kind = DiffOp::Kind::kPeek;
    }
    script.push_back(op);
  }
  return script;
}

}  // namespace slowcc::test
