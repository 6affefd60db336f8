#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exp/row.hpp"
#include "exp/sweep_spec.hpp"

namespace slowcc::exp {

/// Per-trial budgets applied to every trial the runner executes. A
/// trial that crosses one is quarantined as a failed row; it is never
/// retried, so a cell's replicates are always the seeds its grid
/// derived. 0 leaves a budget unlimited.
struct RunnerPolicy {
  /// Per-Simulator event budget; exceeding it makes the trial a
  /// kDeadlineExceeded failure. Deterministic.
  std::uint64_t max_trial_events = 0;
  /// Per-Simulator wall-clock budget (seconds), checked every 1024
  /// events; exceeding it makes the trial a kDeadlineExceeded failure.
  /// Nondeterministic by nature, so no command-line tool sets it. Only
  /// perfbench's paper_sweep still does; the field leaves with that
  /// workload's re-pin (ROADMAP item 3b).
  double max_trial_wall_seconds = 0.0;
  /// Per-Simulator modeled-memory budget (bytes) enforced by the
  /// ResourceGovernor; exceeding it makes the trial a
  /// kResourceExhausted failure. Deterministic (the model counts
  /// logical events/packets/bytes, never RSS).
  std::uint64_t max_trial_bytes = 0;
};

/// The event budget `slowcc_sweep` and the figure table give a trial
/// unless told otherwise, so a hung trial ends at the same event on
/// every host. The largest trial of the full figure table executes
/// 13,097,017 events; the largest any registry experiment or spec runs
/// at full duration and default parameters, 13,558,087 (stabilization
/// under RAP(1/256)). Both are about 15 times below it.
inline constexpr std::uint64_t kMaxTrialEvents = 200'000'000;

/// Concurrent trial executor.
///
/// Threading model: `run()` spawns up to `jobs` workers that pull trial
/// indices from a shared atomic counter (a self-balancing work queue —
/// a slow trial simply keeps one worker busy while the others drain the
/// rest). Each worker runs `fn(trials[i])` and writes the result into
/// slot `i` of a pre-sized output vector; slots are disjoint, so no
/// lock guards the results. Each trial constructs its own `Simulator`
/// and network — nothing in `sim/`, `net/`, `cc/`, or `scenario/`
/// shares mutable state across trials — which makes the output
/// independent of scheduling: `jobs=1` and `jobs=N` produce identical
/// rows in identical (trial-id) order.
///
/// Fault tolerance: each trial runs once, inside a quarantine. A
/// throwing trial (sim::SimError or any std::exception) becomes a
/// structured failure row — error message and error_kind — never a
/// propagated exception, so a sweep always yields exactly
/// `trials.size()` rows plus a complete failure record. The policy
/// adds per-trial budgets (events, wall clock, modeled memory), armed
/// on every Simulator the trial builds through the thread-local
/// construct observer.
class ParallelRunner {
 public:
  /// Progress observer, called after each completed trial with
  /// (completed, total). Invoked under an internal mutex, so it may
  /// write to a terminal without interleaving; keep it fast.
  using Progress = std::function<void(std::size_t, std::size_t)>;
  /// Row observer, called with each finished row in completion order, under the same internal mutex — the
  /// checkpoint journal hook. Completion order differs between runs;
  /// consumers must key on trial_id, not position.
  using OnRow = std::function<void(const Row&)>;

  explicit ParallelRunner(int jobs = 1);

  /// Number of workers this runner will use (>= 1).
  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Value for "use every core": hardware_concurrency, floored at 1.
  [[nodiscard]] static int default_jobs() noexcept;

  void set_progress(Progress progress) { progress_ = std::move(progress); }
  void set_on_row(OnRow on_row) { on_row_ = std::move(on_row); }

  /// Throws sim::SimError (kBadConfig) on an invalid policy.
  void set_policy(const RunnerPolicy& policy);
  [[nodiscard]] const RunnerPolicy& policy() const noexcept {
    return policy_;
  }

  /// Execute `fn` over every trial under the quarantine and budgets.
  [[nodiscard]] std::vector<Row> run(
      const std::vector<TrialDesc>& trials,
      const std::function<Row(const TrialDesc&)>& fn) const;

  /// `run()` with the experiment registry's `run_trial`.
  [[nodiscard]] std::vector<Row> run(
      const std::vector<TrialDesc>& trials) const;

 private:
  [[nodiscard]] Row run_quarantined(const TrialDesc& trial,
                                    const std::function<Row(const TrialDesc&)>& fn) const;

  int jobs_;
  RunnerPolicy policy_;
  Progress progress_;
  OnRow on_row_;
};

}  // namespace slowcc::exp
