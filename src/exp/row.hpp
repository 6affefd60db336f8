#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slowcc::exp {

/// Execution record of one trial, kept beside its scientific payload.
///
/// Deterministic fields (ok, error_kind, message, attempts) are
/// serialized into the row JSON/CSV and must be identical for jobs=1
/// and jobs=N runs of the same spec+policy. Nondeterministic meters
/// (wall_ms, events) exist for the failure manifest only and never
/// enter the byte-compared row serialization.
struct TrialOutcome {
  bool ok = true;
  /// Failure class: sim::to_string(SimErrc) for SimError failures,
  /// "exception" for anything else. Empty when ok.
  std::string error_kind;
  /// Attempts made. ParallelRunner runs each trial once, so this is 1;
  /// rows serialize it only when it is above 1.
  int attempts = 1;
  /// Wall-clock cost of the trial (manifest only — not serialized into
  /// rows).
  double wall_ms = 0.0;
  /// Simulator events executed by the trial (manifest only).
  std::uint64_t events = 0;
  /// Peak resource-model usage observed by the ResourceGovernor during
  /// the trial. Derived from logical simulation state, so
  /// deterministic — serialized into the row (only on resource-
  /// exhausted failures, so budget-free sweeps keep their bytes).
  std::uint64_t peak_live_events = 0;
  std::uint64_t peak_live_packets = 0;
  std::uint64_t peak_queued_bytes = 0;
  std::uint64_t peak_bytes_estimate = 0;
};

/// One structured result row: the outcome of a single simulation trial.
///
/// A row carries its grid coordinates (experiment, algorithm, numeric
/// axes such as bandwidth or a swept parameter) and a flat ordered list
/// of named numeric metrics produced by the experiment adapter. Rows
/// are plain data — they are produced on worker threads and only ever
/// moved, so they need no synchronization.
struct Row {
  std::uint64_t trial_id = 0;
  std::string experiment;
  std::string algorithm;
  /// Grid-cell key: every axis except the trial index / derived seed.
  /// Rows with equal `cell` are aggregated together.
  std::string cell;
  int trial_index = 0;
  std::uint64_t seed = 0;
  /// Non-empty when the trial failed; metrics are then meaningless.
  /// Mirrors `outcome`: error.empty() == outcome.ok.
  std::string error;
  /// Structured execution record (quarantine/deadline metadata).
  TrialOutcome outcome;

  /// Numeric axis values (e.g. {"bandwidth_mbps", 15}) — duplicated
  /// from `cell` in machine-readable form.
  std::vector<std::pair<std::string, double>> axes;
  std::vector<std::pair<std::string, double>> metrics;

  void set_axis(std::string name, double value) {
    axes.emplace_back(std::move(name), value);
  }
  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  /// Value of metric `name`; NaN when absent.
  [[nodiscard]] double get(std::string_view name) const noexcept;

  [[nodiscard]] std::string to_json() const;
};

/// Union of metric (and axis) names across `rows`, in first-seen order
/// — the column set for CSV export.
[[nodiscard]] std::vector<std::string> metric_names(
    const std::vector<Row>& rows);
[[nodiscard]] std::vector<std::string> axis_names(
    const std::vector<Row>& rows);

}  // namespace slowcc::exp
