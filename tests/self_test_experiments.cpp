// Self-test experiments: `poison` and `membomb` fail, spin, sleep or
// grow without bound on purpose, so the sweep machinery's quarantine,
// deadline, checkpoint and resource-budget paths can be driven end to
// end. They are test scaffolding, not workloads, so they live
// here instead of in the production registry (src/exp/registry.cpp).
//
// This file is linked into slowcc_tests and into slowcc_sweep_selftest
// (tools/slowcc_sweep.cpp built with it, for sweep_chaos_smoke and
// overload_smoke). A static initializer registers both experiments
// through exp::register_experiment, so neither binary calls anything
// to get them.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "exp/registry.hpp"
#include "exp/seed.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::exp {
namespace {

// Sub-stream of a trial's seed for poison's fail_rate roll.
constexpr std::uint64_t kFailRateStream = 0x6661696c;  // "fail"

/// Deterministic failure injector for crash-safety self-tests: fails
/// in controlled, reproducible ways so the quarantine / deadline /
/// checkpoint machinery can be exercised end to end without a flaky
/// real workload. Failure knobs:
///   boom=1        -> throw kTrialAborted on every trial
///   fail_rate=P   -> throw kTrialAborted on a fraction P of trials,
///                    rolled from the trial's seed (so the same trials
///                    fail on every run, whatever --jobs is)
///   spin=1        -> schedule events forever; only a trial deadline
///                    (event budget / wall clock) ends the run
///   sleep_ms=T    -> hold the worker for T real milliseconds first
///                    (lets smoke tests kill a sweep mid-flight)
///   events=N      -> execute an N-event chain, then succeed
Row run_poison(const TrialDesc& d) {
  const double sleep_ms = d.param("sleep_ms", 0.0);
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
  if (d.param("boom", 0.0) != 0.0) {
    throw sim::SimError(
        sim::SimErrc::kTrialAborted, "poison",
        "boom (trial_index " + std::to_string(d.trial_index) + ")");
  }
  const double fail_rate = d.param("fail_rate", 0.0);
  if (fail_rate > 0.0 &&
      sim::Rng(derive_seed(d.seed, kFailRateStream)).chance(fail_rate)) {
    throw sim::SimError(
        sim::SimErrc::kTrialAborted, "poison",
        "fail_rate roll (trial_index " + std::to_string(d.trial_index) + ")");
  }
  sim::Simulator sim;  // picks up any ambient trial deadline
  const bool spin = d.param("spin", 0.0) != 0.0;
  const auto budget = static_cast<std::uint64_t>(d.param("events", 32.0));
  std::function<void()> tick = [&] {
    if (spin || sim.events_executed() < budget) {
      sim.schedule_in(sim::Time::millis(1), tick);
    }
  };
  sim.schedule_in(sim::Time::millis(1), tick);
  sim.run();
  Row r;
  r.set("value", static_cast<double>(d.seed % 1000));
  r.set("events_run", static_cast<double>(sim.events_executed()));
  return r;
}

/// Memory-bomb self-test: the resource-governance sibling of `poison`.
/// A bomb trial grows its live-event count and a queue's pooled
/// packet/byte totals geometrically, so only a ResourceGovernor byte
/// budget (or the `events` safety cap for unbudgeted runs) ends it —
/// proving a sweep with a bomb completes with one structured
/// kResourceExhausted quarantine row. Knobs:
///   bomb=1            -> every trial is a bomb
///   bomb_trial=K      -> only trial_index K is a bomb (K < 0: none);
///                        the rest of the cell runs the benign chain
///   pkts_per_event=N  -> packets pushed into the queue per
///                        bomb event (1500 B each, never drained)
///   events=N          -> safety cap on the event chain, so unbudgeted
///                        invocations terminate instead of eating the
///                        machine
///   sleep_ms=T        -> hold the worker first (smoke tests kill a
///                        --resume run mid-bomb)
Row run_membomb(const TrialDesc& d) {
  const double sleep_ms = d.param("sleep_ms", 0.0);
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
  const int bomb_trial = static_cast<int>(d.param("bomb_trial", -1.0));
  const bool bomb =
      d.param("bomb", 0.0) != 0.0 || (bomb_trial >= 0 &&
                                      d.trial_index == bomb_trial);
  const auto pkts_per_event =
      static_cast<int>(d.param("pkts_per_event", 16.0));
  const auto cap = static_cast<std::uint64_t>(d.param("events", 256.0));

  sim::Simulator sim;  // picks up any ambient trial budget
  // Declared after `sim` so it is destroyed first, releasing its
  // residue to the still-alive pool (the balance-to-zero test leans on
  // this ordering, same as every scenario driver's). The governor
  // counts the pool's packets, and every one of them is queued here.
  net::DropTailQueue queue(std::size_t{1} << 30);
  net::PacketPool& pool = net::PacketPool::of(sim);
  queue.attach_pool(&pool);

  std::function<void()> tick = [&] {
    if (sim.events_executed() >= cap) return;
    if (bomb) {
      for (int i = 0; i < pkts_per_event; ++i) {
        net::Packet p;
        p.size_bytes = 1500;
        const net::PacketHandle h = pool.acquire(p).handle;
        if (queue.enqueue(h).has_value()) pool.release(h);
      }
      // Two children per event: the live-event count grows too, so the
      // bomb stresses both halves of the governor's model.
      sim.schedule_in(sim::Time::millis(1), tick);
      sim.schedule_in(sim::Time::millis(2), tick);
    } else {
      sim.schedule_in(sim::Time::millis(1), tick);
    }
  };
  sim.schedule_in(sim::Time::millis(1), tick);
  sim.run();
  Row r;
  r.set("value", static_cast<double>(d.seed % 1000));
  r.set("events_run", static_cast<double>(sim.events_executed()));
  r.set("queued_pkts", static_cast<double>(queue.length_packets()));
  return r;
}

[[maybe_unused]] const bool kRegistered = [] {
  register_experiment(
      {"poison",
       "deterministic failure injector exercising quarantine, "
       "deadlines, and checkpoint/resume (self-test only)",
       {"value", "events_run"},
       {"boom=0", "fail_rate=0", "spin=0", "sleep_ms=0", "events=32"},
       run_poison});
  register_experiment(
      {"membomb",
       "memory-bomb self-test: unbounded event/packet growth that only "
       "a resource budget stops, exercising the ResourceGovernor and "
       "quarantine peak fields end to end (self-test only)",
       {"value", "events_run", "queued_pkts"},
       {"bomb=0", "bomb_trial=-1", "pkts_per_event=16", "events=256",
        "sleep_ms=0"},
       run_membomb});
  return true;
}();

}  // namespace
}  // namespace slowcc::exp
