#include "exp/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>

#include "exp/registry.hpp"
#include "sim/error.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace slowcc::exp {
namespace {

/// Stamp a row with a trial's identity — used when the row had to be
/// synthesized from an exception instead of coming back from fn.
void stamp_identity(Row& row, const TrialDesc& d) {
  row.trial_id = d.trial_id;
  row.experiment = d.experiment;
  row.algorithm = d.algorithm;
  row.cell = d.cell_key();
  row.trial_index = d.trial_index;
  row.seed = d.seed;
}

/// A failure row for `d` carrying the exception's message and kind.
Row failure_row(const TrialDesc& d, const char* what, std::string kind) {
  Row row;
  stamp_identity(row, d);
  row.error = what;
  row.outcome.ok = false;
  row.outcome.error_kind = std::move(kind);
  return row;
}

// Events between two wall-clock checks of a trial's Simulator.
constexpr std::uint64_t kWallCheckEvery = 1024;

/// Fail `sim`'s run with kDeadlineExceeded once `seconds` of wall time
/// have passed since now, checked every kWallCheckEvery events. The
/// check rides on the Simulator's one event-hook slot, which is free at
/// construction; the Simulator owns the hook, so it dies with it.
void arm_wall_clock(sim::Simulator& sim, double seconds) {
  const auto start = std::chrono::steady_clock::now();
  sim.set_event_hook(kWallCheckEvery, [start, seconds] {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < seconds) return;
    throw sim::SimError(sim::SimErrc::kDeadlineExceeded, "ParallelRunner",
                        "wall-clock budget of " + std::to_string(seconds) +
                            " s exhausted");
  });
}

/// Arms a policy's budgets on every Simulator the calling thread builds
/// while alive, and empties the thread's construct-observer slot on
/// every exit path. Scenario drivers build their Simulators privately,
/// so the observer is the runner's one seam into them.
class ScopedPolicy {
 public:
  explicit ScopedPolicy(const RunnerPolicy& policy) {
    if (policy.max_trial_events == 0 && policy.max_trial_bytes == 0 &&
        policy.max_trial_wall_seconds <= 0.0) {
      return;
    }
    sim::Simulator::set_thread_construct_observer([policy](
                                                      sim::Simulator& sim) {
      if (policy.max_trial_events != 0) {
        sim.set_event_budget(policy.max_trial_events);
      }
      if (policy.max_trial_bytes != 0) {
        sim.governor().set_budget(policy.max_trial_bytes);
      }
      if (policy.max_trial_wall_seconds > 0.0) {
        arm_wall_clock(sim, policy.max_trial_wall_seconds);
      }
    });
    armed_ = true;
  }
  ~ScopedPolicy() {
    if (armed_) sim::Simulator::set_thread_construct_observer(nullptr);
  }
  ScopedPolicy(const ScopedPolicy&) = delete;
  ScopedPolicy& operator=(const ScopedPolicy&) = delete;

 private:
  bool armed_ = false;
};

}  // namespace

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs) {
  if (jobs < 1) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "jobs must be >= 1");
  }
}

int ParallelRunner::default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelRunner::set_policy(const RunnerPolicy& policy) {
  if (!(policy.max_trial_wall_seconds >= 0.0) ||
      !std::isfinite(policy.max_trial_wall_seconds)) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "max_trial_wall_seconds must be finite and >= 0");
  }
  policy_ = policy;
}

Row ParallelRunner::run_quarantined(
    const TrialDesc& trial,
    const std::function<Row(const TrialDesc&)>& fn) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events_start = sim::Simulator::thread_events_executed();
  sim::ResourceGovernor::reset_thread_peaks();

  Row row;
  try {
    const ScopedPolicy guard(policy_);
    row = fn(trial);
    stamp_identity(row, trial);
    row.outcome.ok = row.error.empty();
    if (!row.outcome.ok && row.outcome.error_kind.empty()) {
      // fn reported an error without classifying it (custom fns).
      row.outcome.error_kind = "exception";
    }
  } catch (const sim::SimError& ex) {
    row = failure_row(trial, ex.what(), sim::to_string(ex.code()));
  } catch (const std::exception& ex) {
    row = failure_row(trial, ex.what(), "exception");
  }
  // The thread-local peaks survive the Simulator that produced them,
  // which is what makes them readable after an exception tore the
  // scenario down.
  const sim::ResourceUsage& pk = sim::ResourceGovernor::thread_peaks();
  row.outcome.peak_live_events = pk.live_events;
  row.outcome.peak_live_packets = pk.live_packets;
  row.outcome.peak_queued_bytes = pk.queued_bytes;
  row.outcome.peak_bytes_estimate = pk.bytes_estimate;
  row.outcome.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  row.outcome.events =
      sim::Simulator::thread_events_executed() - events_start;
  return row;
}

std::vector<Row> ParallelRunner::run(
    const std::vector<TrialDesc>& trials,
    const std::function<Row(const TrialDesc&)>& fn) const {
  std::vector<Row> rows(trials.size());
  if (trials.empty()) return rows;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex observer_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= trials.size()) return;
      rows[i] = run_quarantined(trials[i], fn);
      const std::size_t completed =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (on_row_ || progress_) {
        const std::lock_guard<std::mutex> lock(observer_mu);
        if (on_row_) on_row_(rows[i]);
        if (progress_) progress_(completed, trials.size());
      }
    }
  };

  const int n = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), trials.size()));
  if (n <= 1) {
    worker();
    return rows;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return rows;
}

std::vector<Row> ParallelRunner::run(
    const std::vector<TrialDesc>& trials) const {
  return run(trials, [](const TrialDesc& d) { return run_trial(d); });
}

}  // namespace slowcc::exp
