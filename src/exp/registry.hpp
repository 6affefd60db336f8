#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/row.hpp"
#include "exp/sweep_spec.hpp"
#include "scenario/dumbbell.hpp"

namespace slowcc::exp {

/// One registered experiment: a uniform `run(trial) -> Row` wrapper
/// around a `src/scenario/` experiment. Adapters construct a fresh
/// Simulator per call and touch no shared mutable state, so the same
/// function object may run on many threads at once.
struct Experiment {
  std::string name;
  std::string description;
  /// Metric names this experiment emits (documentation + CSV headers).
  std::vector<std::string> metrics;
  /// Experiment-specific parameter names honored via TrialDesc::params,
  /// each with its default ("name=default" strings, documentation).
  std::vector<std::string> params;
  std::function<Row(const TrialDesc&)> run;
};

/// Every registered experiment: the built-ins in stable order,
/// followed by dynamically registered ones (compiled scenario specs)
/// in registration order.
[[nodiscard]] const std::vector<Experiment>& experiments();

/// Register an additional experiment (e.g. a compiled `specs/*.toml`
/// scenario). Throws sim::SimError (kBadConfig) on an empty name, a
/// missing run function, or a name collision with an already
/// registered experiment. NOT thread-safe: register during process
/// startup, before any sweep workers run — the returned vector from
/// `experiments()` may reallocate on registration.
void register_experiment(Experiment e);

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Experiment* find_experiment(std::string_view name);

/// Run one trial end to end: dispatch to the registry, stamp the row
/// with the trial's identity (id, cell, axes, seed), and convert any
/// exception into `Row::error` so one failed trial cannot abort a
/// sweep. Throws only when `desc.experiment` itself is unknown.
[[nodiscard]] Row run_trial(const TrialDesc& desc);

/// Parse an algorithm token into a FlowSpec. Grammar:
/// `kind[:gamma][:c]` with kind in {tcp, sqrt, iiad, rap, tfrc, tear};
/// gamma is TCP(1/gamma)/RAP(1/gamma)/SQRT(1/gamma) or TFRC(k); a
/// trailing `:c` selects TFRC's conservative (self-clocked) option.
/// Examples: "tcp", "tcp:8", "tfrc:256:c". Throws `sim::SimError`
/// (kBadConfig) on malformed tokens.
[[nodiscard]] scenario::FlowSpec parse_flow_spec(std::string_view token);

}  // namespace slowcc::exp
