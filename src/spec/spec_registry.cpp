#include "spec/spec_registry.hpp"

#include <cstdio>
#include <utility>

#include "sim/error.hpp"
#include "spec/compiler.hpp"

namespace slowcc::spec {

std::vector<std::string> spec_metric_names(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  out.reserve(11);  // every family at once
  if (spec.metrics.throughput) {
    out.emplace_back("aggregate_goodput_bps");
    out.emplace_back("aggregate_fraction");
  }
  if (spec.metrics.utilization) out.emplace_back("utilization");
  if (spec.metrics.loss) out.emplace_back("drop_rate");
  if (spec.metrics.fairness) out.emplace_back("jain_index");
  if (spec.metrics.smoothness) {
    out.emplace_back("smoothness");
    out.emplace_back("cov");
  }
  bool crowd = false;
  bool media = false;
  for (const TrafficSection& t : spec.traffic) {
    crowd = crowd || t.kind == TrafficSection::Kind::kFlashCrowd;
    media = media || t.kind == TrafficSection::Kind::kMedia;
  }
  if (crowd) {
    out.emplace_back("crowd_flows_started");
    out.emplace_back("crowd_completed_fraction");
  }
  if (media) {
    out.emplace_back("media_mean_rung");
    out.emplace_back("media_rung_switches");
  }
  return out;
}

exp::Experiment make_spec_experiment(
    std::shared_ptr<const ScenarioSpec> spec) {
  exp::Experiment e;
  e.name = spec->scenario.name;
  e.description = spec->scenario.description.empty()
                      ? "scenario spec (" + spec->source + ")"
                      : spec->scenario.description;
  e.metrics = spec_metric_names(*spec);
  e.params.reserve(spec->params.size());
  for (const ParamDecl& p : spec->params) {
    // "%g" is what an ostream prints for a double by default.
    char value[32];
    std::snprintf(value, sizeof value, "%g", p.default_value);
    e.params.push_back(p.name + "=" + value);
  }
  // The [limits] budgets are applied by the CLI as policy defaults,
  // not here, so one thread-level deadline guard stays in charge of
  // every trial.
  e.run = [spec = std::move(spec)](const exp::TrialDesc& d) {
    SpecRunOptions opt;
    opt.algorithm = d.algorithm;
    opt.seed = d.seed;
    opt.duration_scale = d.duration_scale;
    opt.bandwidth_bps = d.bandwidth_bps;
    opt.rtt_ms = d.rtt_ms;
    opt.params = d.params;
    return run_scenario(*spec, opt).row;
  };
  return e;
}

RegisteredScenario register_scenario(
    std::shared_ptr<const ScenarioSpec> spec) {
  if (exp::find_experiment(spec->scenario.name) != nullptr) {
    throw sim::SimError(
        sim::SimErrc::kBadSpec, "spec",
        spec->source + ":1: scenario name '" + spec->scenario.name +
            "' collides with an already registered experiment");
  }
  RegisteredScenario out;
  out.experiment = spec->scenario.name;
  out.default_algorithm = spec->scenario.default_algorithm;
  out.uses_algorithm_hole = spec->uses_algorithm_hole();
  out.spec = spec;
  exp::register_experiment(make_spec_experiment(std::move(spec)));
  return out;
}

RegisteredScenario load_spec_file(const std::string& path) {
  return register_scenario(
      std::make_shared<const ScenarioSpec>(parse_scenario_file(path)));
}

}  // namespace slowcc::spec
