#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/fairness_experiment.hpp"
#include "scenario/oscillation_experiment.hpp"
#include "scenario/stabilization_experiment.hpp"
#include "sim/simulator.hpp"

// Golden-trace regression tests.
//
// Each test runs a scaled-down paper scenario (Figures 3, 7, 14) and
// folds every Simulator's (fire-time, seq) trace digest into one
// scenario digest. The result must match the digest pinned under
// tests/golden/, so any change to event ordering anywhere in the stack
// (event queue, queues, links, agents, traffic sources) is caught, not
// just changes to the metrics the scenario outcome summarizes.
//
// To regenerate after an *intentional* ordering change:
//   SLOWCC_REGEN_GOLDEN=1 ./tests/slowcc_tests --gtest_filter='GoldenTrace.*'
// then commit the rewritten tests/golden/*.txt (see EXPERIMENTS.md).

#ifndef SLOWCC_GOLDEN_DIR
#error "SLOWCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace slowcc {
namespace {

/// Collects trace digests from every Simulator the scenario driver
/// constructs, via the construct observer + guard hook (the guard's
/// deleter runs in ~Simulator while its members are still alive).
class ScenarioDigest {
 public:
  ScenarioDigest() {
    sim::Simulator::set_thread_construct_observer([this](sim::Simulator& s) {
      ++simulators_;
      s.attach_guard(std::shared_ptr<void>(nullptr, [this, sp = &s](void*) {
        combined_ = sim::fnv1a_u64(combined_, sp->trace_digest());
        combined_ = sim::fnv1a_u64(combined_, sp->events_executed());
      }));
    });
  }

  ScenarioDigest(const ScenarioDigest&) = delete;
  ScenarioDigest& operator=(const ScenarioDigest&) = delete;

  ~ScenarioDigest() {
    sim::Simulator::set_thread_construct_observer(nullptr);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return combined_; }
  [[nodiscard]] int simulators() const noexcept { return simulators_; }

 private:
  std::uint64_t combined_ = sim::kFnvOffsetBasis;
  int simulators_ = 0;
};

std::string golden_path(const std::string& name) {
  return std::string(SLOWCC_GOLDEN_DIR) + "/" + name + ".txt";
}

/// Compare `digest` against the pinned value (or rewrite the pin when
/// SLOWCC_REGEN_GOLDEN is set).
void expect_matches_golden(const std::string& name, std::uint64_t digest) {
  const std::string path = golden_path(name);
  std::ostringstream rendered;
  rendered << "slowcc.golden.v1 " << name << " 0x" << std::hex << digest
           << "\n";
  if (std::getenv("SLOWCC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered.str();
    std::cout << "[regen] wrote " << path << ": " << rendered.str();
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with SLOWCC_REGEN_GOLDEN=1 to create it";
  std::string header;
  std::string file_name;
  std::string digest_text;
  in >> header >> file_name >> digest_text;
  ASSERT_EQ(header, "slowcc.golden.v1") << "bad golden header in " << path;
  ASSERT_EQ(file_name, name);
  const std::uint64_t pinned =
      std::strtoull(digest_text.c_str(), nullptr, 16);
  EXPECT_EQ(digest, pinned)
      << "scenario '" << name << "' produced a different event trace than "
      << "the pinned golden (" << rendered.str()
      << " vs " << digest_text << "). If the ordering change is intentional, "
      << "regenerate with SLOWCC_REGEN_GOLDEN=1 (see EXPERIMENTS.md).";
}

/// Run `scenario` and compare its digest against the pinned golden.
template <typename Fn>
void check_scenario(const std::string& name, Fn scenario) {
  ScenarioDigest capture;
  scenario();
  ASSERT_GT(capture.simulators(), 0)
      << "scenario built no Simulator; digest capture is broken";
  expect_matches_golden(name, capture.value());
}

// Figure 3 regime: stabilization after a sudden bandwidth reduction,
// scaled to a 20 s run.
TEST(GoldenTrace, Fig03StabilizationTrace) {
  check_scenario("fig03_stabilization", [] {
    scenario::StabilizationConfig cfg;
    cfg.spec = scenario::FlowSpec::tfrc(6);
    cfg.num_flows = 5;
    cfg.net.bottleneck_bps = 10e6;
    cfg.cbr_stop = sim::Time::seconds(10);
    cfg.cbr_restart = sim::Time::seconds(13);
    cfg.end = sim::Time::seconds(20);
    cfg.seed = 1;
    (void)scenario::run_stabilization(cfg);
  });
}

// Figure 7 regime: TCP vs TFRC fairness under a square-wave CBR,
// scaled to a 25 s run.
TEST(GoldenTrace, Fig07FairnessTrace) {
  check_scenario("fig07_fairness", [] {
    scenario::FairnessConfig cfg;
    cfg.cbr_period = sim::Time::seconds(1.0);
    cfg.warmup = sim::Time::seconds(5.0);
    cfg.measure = sim::Time::seconds(20.0);
    cfg.seed = 1;
    (void)scenario::run_fairness(cfg);
  });
}

// Figure 14 regime: rapid 3:1 bandwidth oscillation, scaled to a 30 s
// run.
TEST(GoldenTrace, Fig14OscillationTrace) {
  check_scenario("fig14_oscillation", [] {
    scenario::OscillationConfig cfg;
    cfg.on_off_length = sim::Time::seconds(0.2);
    cfg.measure = sim::Time::seconds(20.0);
    cfg.seed = 1;
    (void)scenario::run_oscillation(cfg);
  });
}

}  // namespace
}  // namespace slowcc
