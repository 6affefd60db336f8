#pragma once

// The scenario compiler: ScenarioSpec IR + per-trial options -> one
// deterministic simulation run on the existing primitives (Dumbbell
// topology, cc:: agents, traffic:: sources, fault:: scripts,
// metrics:: monitors). See DESIGN.md §12 for the pipeline.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/row.hpp"
#include "spec/scenario_spec.hpp"

namespace slowcc::spec {

/// Per-run knobs: everything the sweep grid varies. Mirrors the
/// corresponding TrialDesc fields so registered specs plug into the
/// ordinary trial machinery.
struct SpecRunOptions {
  /// Fills the "$algorithm" hole in [[flows]]; empty uses the spec's
  /// [scenario] default. Ignored by flow groups with literal tokens.
  std::string algorithm;
  std::uint64_t seed = 1;
  /// Uniform timeline shrink: every `_s` field (starts, stops, fault
  /// times, the measurement window) scales; `_ms` magnitudes (delays,
  /// jitter amplitudes) do not.
  double duration_scale = 1.0;
  double bandwidth_bps = 0;  // > 0 overrides [topology] bottleneck
  double rtt_ms = 0;         // > 0 overrides the path RTT
  /// [params] overrides (sweep axis + fixed --set values). Names must
  /// be declared in the spec's [params] section.
  std::vector<std::pair<std::string, double>> params;
};

/// The run's scientific payload plus its reproducibility fingerprint.
struct SpecRunResult {
  exp::Row row;  // metrics only; identity is stamped by exp::run_trial
  std::uint64_t trace_digest = 0;  // sim::Simulator::trace_digest()
  std::uint64_t events = 0;
};

/// Compile and execute `spec` under `opt`. Throws
/// sim::SimError(kBadSpec) on resolution failures (unknown $param,
/// out-of-range resolved value, bad algorithm token), each carrying
/// the spec's file:line, and sim::SimError(kBadConfig) when
/// `opt.duration_scale` is not a finite number > 0.
[[nodiscard]] SpecRunResult run_scenario(const ScenarioSpec& spec,
                                         const SpecRunOptions& opt);

}  // namespace slowcc::spec
