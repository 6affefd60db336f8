// Scenario compiler + registry binding: a compiled spec must run
// deterministically (same seed => same event trace), honor parameter
// overrides and the "$algorithm" hole, and behave as a first-class
// exp:: experiment (run_trial dispatch, error rows, collision
// rejection).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "exp/registry.hpp"
#include "sim/error.hpp"
#include "spec/compiler.hpp"
#include "spec/scenario_spec.hpp"
#include "spec/spec_registry.hpp"
#include "spec/toml.hpp"

namespace slowcc::spec {
namespace {

ScenarioSpec from_text(const std::string& text,
                       const std::string& source = "mem.toml") {
  return parse_scenario_spec(parse_toml(text, source));
}

/// A small but non-trivial scenario: algorithm hole, a declared param
/// used by a fault, cross traffic, fairness metrics.
constexpr const char* kScenario = R"(
[scenario]
name = "compiler_case"
description = "compiler unit-test scenario"
warmup_s = 2
measure_s = 6

[params]
cbr_mbps = 3
burst_loss = 0.4

[topology]
bottleneck_mbps = 10
bottleneck_delay_ms = 23

[[flows]]
algorithm = "$algorithm"
count = 2
start_s = 0
start_spread_s = 0.5

[[traffic]]
kind = "cbr"
rate_mbps = "$cbr_mbps"
start_s = 1

[[faults]]
kind = "impairment"
at_s = 0
loss_bad = "$burst_loss"

[metrics]
throughput = true
loss = true
fairness = true
)";

SpecRunOptions fast_opts() {
  SpecRunOptions opt;
  opt.seed = 42;
  opt.duration_scale = 0.05;
  return opt;
}

TEST(SpecCompiler, SameSeedSameTrace) {
  const ScenarioSpec spec = from_text(kScenario);
  const SpecRunResult a = run_scenario(spec, fast_opts());
  const SpecRunResult b = run_scenario(spec, fast_opts());
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.row.metrics.size(), b.row.metrics.size());
  for (std::size_t i = 0; i < a.row.metrics.size(); ++i) {
    EXPECT_EQ(a.row.metrics[i].first, b.row.metrics[i].first);
    EXPECT_EQ(a.row.metrics[i].second, b.row.metrics[i].second);
  }
}

TEST(SpecCompiler, DifferentSeedsDiverge) {
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions other = fast_opts();
  other.seed = 43;
  EXPECT_NE(run_scenario(spec, fast_opts()).trace_digest,
            run_scenario(spec, other).trace_digest);
}

TEST(SpecCompiler, RowMetricsMatchTheAdvertisedNamesInOrder) {
  const ScenarioSpec spec = from_text(kScenario);
  const SpecRunResult result = run_scenario(spec, fast_opts());
  const std::vector<std::string> names = spec_metric_names(spec);
  ASSERT_EQ(result.row.metrics.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(result.row.metrics[i].first, names[i]);
  }
}

TEST(SpecCompiler, ParamOverrideChangesTheRun) {
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions loud = fast_opts();
  loud.params.emplace_back("cbr_mbps", 8.0);
  EXPECT_NE(run_scenario(spec, fast_opts()).trace_digest,
            run_scenario(spec, loud).trace_digest);
}

TEST(SpecCompiler, UnknownParamOverrideIsRejected) {
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions opt = fast_opts();
  opt.params.emplace_back("not_a_param", 1.0);
  try {
    (void)run_scenario(spec, opt);
    FAIL() << "unknown override accepted";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
    EXPECT_NE(std::string(e.what()).find("not_a_param"), std::string::npos);
  }
}

TEST(SpecCompiler, OutOfRangeSweptValueIsRejectedAtCompileTime) {
  // burst_loss is a unit-interval field; a swept value of 1.5 must be
  // rejected exactly like a literal 1.5 would have been at parse time.
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions opt = fast_opts();
  opt.params.emplace_back("burst_loss", 1.5);
  try {
    (void)run_scenario(spec, opt);
    FAIL() << "out-of-range swept value accepted";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
    EXPECT_NE(std::string(e.what()).find("must be in [0, 1]"),
              std::string::npos);
  }
}

// Integer fields become ints in the compiled scenario, so a resolved
// value past INT_MAX is rejected at the key's line, whether it comes
// from the [params] default or from an override.
TEST(SpecCompiler, ResolvedIntegerPastIntIsRejectedAtItsLine) {
  const ScenarioSpec spec = from_text(
      "[scenario]\nname = \"big\"\nmeasure_s = 1\n"  // lines 1-3
      "[params]\nflows = 3000000000\nreverse = 1\n"    // lines 4-6
      "[topology]\nreverse_tcp_flows = \"$reverse\"\n"  // lines 7-8
      "[[flows]]\ncount = \"$flows\"\n",                // lines 9-10
      "big.toml");
  const auto error_of = [&spec](const SpecRunOptions& opt) -> std::string {
    try {
      (void)run_scenario(spec, opt);
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of(fast_opts()),
            "[bad-spec] spec: big.toml:10: key 'count': value "
            "3000000000.000000 must be <= 2147483647");
  SpecRunOptions opt = fast_opts();
  opt.params.emplace_back("flows", 1.0);
  opt.params.emplace_back("reverse", 2147483648.0);
  EXPECT_EQ(error_of(opt),
            "[bad-spec] spec: big.toml:8: key 'reverse_tcp_flows': value "
            "2147483648.000000 must be <= 2147483647");
}

TEST(SpecCompiler, AlgorithmHoleIsFilledPerRun) {
  const ScenarioSpec spec = from_text(kScenario);
  EXPECT_TRUE(spec.uses_algorithm_hole());
  SpecRunOptions tfrc = fast_opts();
  tfrc.algorithm = "tfrc:6";
  EXPECT_NE(run_scenario(spec, fast_opts()).trace_digest,
            run_scenario(spec, tfrc).trace_digest);
}

TEST(SpecCompiler, MalformedAlgorithmTokenReportsTheFlowGroupLine) {
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions opt = fast_opts();
  opt.algorithm = "warp-drive";
  try {
    (void)run_scenario(spec, opt);
    FAIL() << "bogus algorithm token accepted";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
    EXPECT_NE(std::string(e.what()).find("mem.toml:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos);
  }
}

TEST(SpecCompiler, DurationScaleScalesTimelineNotMagnitudes) {
  // At a smaller scale the run executes fewer events but still
  // completes with the full metric set.
  const ScenarioSpec spec = from_text(kScenario);
  SpecRunOptions tiny = fast_opts();
  tiny.duration_scale = 0.02;
  const SpecRunResult big = run_scenario(spec, fast_opts());
  const SpecRunResult small = run_scenario(spec, tiny);
  EXPECT_LT(small.events, big.events);
  EXPECT_EQ(small.row.metrics.size(), big.row.metrics.size());
}

TEST(SpecCompiler, DurationScaleMustBeFiniteAndPositive) {
  // At 0 every timeline collapses onto t = 0, where some specs never
  // finish; the library refuses it rather than trusting each caller.
  const ScenarioSpec spec = from_text(kScenario);
  for (const double scale : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    SpecRunOptions opt = fast_opts();
    opt.duration_scale = scale;
    try {
      (void)run_scenario(spec, opt);
      ADD_FAILURE() << "duration_scale " << scale << " accepted";
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.code(), sim::SimErrc::kBadConfig) << scale;
      EXPECT_NE(std::string(e.what()).find("duration_scale"),
                std::string::npos);
    }
  }
}

// ---- registry binding ---------------------------------------------

TEST(SpecRegistry, RegisteredSpecDispatchesThroughRunTrial) {
  const std::string text = std::string(kScenario);
  const std::string renamed =
      "[scenario]\nname = \"spec_registry_case\"" +
      text.substr(text.find("\ndescription"));
  const RegisteredScenario reg = register_scenario(
      std::make_shared<const ScenarioSpec>(from_text(renamed)));
  EXPECT_EQ(reg.experiment, "spec_registry_case");
  EXPECT_TRUE(reg.uses_algorithm_hole);

  const exp::Experiment* e = exp::find_experiment("spec_registry_case");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->metrics, spec_metric_names(*reg.spec));
  ASSERT_EQ(e->params.size(), 2u);
  EXPECT_EQ(e->params[0], "cbr_mbps=3");
  EXPECT_EQ(e->params[1], "burst_loss=0.4");

  exp::TrialDesc d;
  d.experiment = "spec_registry_case";
  d.algorithm = "tcp";
  d.seed = 7;
  d.duration_scale = 0.05;
  d.params.emplace_back("cbr_mbps", 5.0);
  const exp::Row row = exp::run_trial(d);
  EXPECT_TRUE(row.outcome.ok) << row.error;
  EXPECT_EQ(row.experiment, "spec_registry_case");
  EXPECT_EQ(row.metrics.size(), e->metrics.size());

  // A bad algorithm token becomes an error row (not an exception) with
  // the spec taxonomy code — one broken cell cannot abort a sweep.
  d.algorithm = "nonsense";
  const exp::Row bad = exp::run_trial(d);
  EXPECT_FALSE(bad.outcome.ok);
  EXPECT_EQ(bad.outcome.error_kind, "bad-spec");
}

TEST(SpecRegistry, NameCollisionsAreRejected) {
  const std::string text = std::string(kScenario);
  const std::string renamed =
      "[scenario]\nname = \"spec_collision_case\"" +
      text.substr(text.find("\ndescription"));
  (void)register_scenario(
      std::make_shared<const ScenarioSpec>(from_text(renamed)));
  try {
    (void)register_scenario(
        std::make_shared<const ScenarioSpec>(from_text(renamed)));
    FAIL() << "duplicate registration accepted";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
    EXPECT_NE(std::string(e.what()).find("collides"), std::string::npos);
  }
  // Colliding with a built-in experiment is the same error.
  const std::string builtin =
      "[scenario]\nname = \"fairness\"" +
      text.substr(text.find("\ndescription"));
  EXPECT_THROW((void)register_scenario(std::make_shared<const ScenarioSpec>(
                   from_text(builtin))),
               sim::SimError);
}

}  // namespace
}  // namespace slowcc::spec
