#pragma once

// Binds compiled scenario specs into the exp:: registry so a
// `specs/*.toml` file is a first-class experiment: sweepable over
// algorithms / bandwidth / RTT / its declared [params], with derived
// seeds, retries, checkpoints, and parallel execution inherited from
// the ordinary trial machinery for free.

#include <memory>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "spec/scenario_spec.hpp"

namespace slowcc::spec {

/// Handle to a spec that has been registered as an experiment.
struct RegisteredScenario {
  std::string experiment;  // registry name == [scenario] name
  std::string default_algorithm;
  bool uses_algorithm_hole = false;
  std::shared_ptr<const ScenarioSpec> spec;
};

/// Build (but do not register) the Experiment adapter for `spec`:
/// name/description/metrics/params from the IR, run = compile+execute
/// under the trial's seed, scale, axes, and params.
[[nodiscard]] exp::Experiment make_spec_experiment(
    std::shared_ptr<const ScenarioSpec> spec);

/// Register an already-parsed spec. Throws sim::SimError(kBadSpec)
/// when the scenario name collides with a registered experiment.
RegisteredScenario register_scenario(std::shared_ptr<const ScenarioSpec> spec);

/// Parse, validate, and register a spec file in one step — the
/// `slowcc_sweep --spec file.toml` entry point.
RegisteredScenario load_spec_file(const std::string& path);

/// Metric names `spec` will emit, in row order (for Experiment
/// metadata and `--list` output).
[[nodiscard]] std::vector<std::string> spec_metric_names(
    const ScenarioSpec& spec);

}  // namespace slowcc::spec
