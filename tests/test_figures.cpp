// The figure table (bench/figures.hpp): every grid expands, shared
// grids run once, and the reports judge their verdicts from the cells of
// their rows, so they can be fed rows here without running a simulation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "figures.hpp"

namespace slowcc::figures {
namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

const Entry& entry(std::string_view name) {
  const Entry* e = find(name);
  if (e == nullptr) throw std::runtime_error("no entry " + std::string(name));
  return *e;
}

/// The rows `e`'s report receives, with each trial's metrics from
/// `metrics`, or an error row where `failed` says so.
std::vector<exp::Row> fake_rows(
    const Entry& e,
    const std::function<Metrics(const exp::TrialDesc&)>& metrics,
    const std::function<bool(const exp::TrialDesc&)>& failed =
        [](const exp::TrialDesc&) { return false; }) {
  const Plan p = plan({&e});
  std::vector<exp::Row> rows;
  for (const std::size_t t : p.inputs[0]) {
    const exp::TrialDesc& d = p.trials[t];
    exp::Row r;
    r.trial_id = d.trial_id;
    r.experiment = d.experiment;
    r.algorithm = d.algorithm;
    r.cell = d.cell_key();
    r.trial_index = d.trial_index;
    if (failed(d)) {
      r.error = "quarantined";
      r.outcome.ok = false;
    } else {
      r.metrics = metrics(d);
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Runs `e`'s report on `rows` with its table captured into `printed`.
Verdict report(const Entry& e, const std::vector<exp::Row>& rows,
               std::string* printed = nullptr) {
  testing::internal::CaptureStdout();
  Verdict v = e.report(Cells(rows));
  const std::string out = testing::internal::GetCapturedStdout();
  if (printed != nullptr) *printed = out;
  return v;
}

/// The slowness parameter of an algorithm token such as "tcp:64".
double slowness(const exp::TrialDesc& d) {
  return std::strtod(d.algorithm.c_str() + d.algorithm.find(':') + 1,
                     nullptr);
}

TEST(FigureTable, ListsTwentyFiveUniqueEntries) {
  std::set<std::string> names;
  for (const Entry& e : table()) {
    names.insert(e.name);
    EXPECT_EQ(find(e.name), &e);
    EXPECT_TRUE(e.report) << e.name;
  }
  EXPECT_EQ(table().size(), 25u);
  EXPECT_EQ(names.size(), 25u);
  EXPECT_EQ(find("no_such_entry"), nullptr);
}

TEST(FigureTable, EveryGridExpands) {
  for (const Entry& e : table()) {
    for (const exp::SweepSpec& g : e.grids) {
      EXPECT_NO_THROW((void)g.expand()) << e.name;
    }
  }
  std::vector<const Entry*> all;
  for (const Entry& e : table()) all.push_back(&e);
  const Plan p = plan(all);
  ASSERT_EQ(p.inputs.size(), all.size());
  for (std::size_t i = 0; i < p.trials.size(); ++i) {
    EXPECT_EQ(p.trials[i].trial_id, i);
  }
}

TEST(FigureTable, SharedGridsRunOnce) {
  const Entry& fig04 = entry("fig04_stabilization_time");
  const Entry& fig05 = entry("fig05_stabilization_cost");
  const Plan stab = plan({&fig04, &fig05});
  EXPECT_EQ(stab.distinct_grids, 1u);
  EXPECT_EQ(stab.trials.size(), 25u);
  EXPECT_EQ(stab.inputs[0], stab.inputs[1]);

  const Plan osc = plan({&entry("fig14_oscillation_utilization"),
                         &entry("fig15_oscillation_droprate")});
  EXPECT_EQ(osc.distinct_grids, 1u);
  EXPECT_EQ(osc.trials.size(), 63u);

  // A grid that differs only in its horizon is its own grid.
  const Plan restart = plan({&entry("fig03_drop_rate"), &fig04});
  EXPECT_EQ(restart.distinct_grids, 2u);
  EXPECT_EQ(restart.trials.size(), 15u + 25u);
}

TEST(FigureReports, QuarantinedCellPrintsNaAndFailsTheVerdict) {
  const Entry& fig07 = entry("fig07_fairness_tcp_tfrc");
  const auto fair = [](const exp::TrialDesc&) {
    return Metrics{{"group_a_mean", 1.0},
                   {"group_b_mean", 0.5},
                   {"utilization", 0.9}};
  };
  EXPECT_TRUE(report(fig07, fake_rows(fig07, fair)).held);

  const auto longest = [](const exp::TrialDesc& d) {
    return d.param("cbr_period", 0) == 16.0;
  };
  std::string printed;
  EXPECT_FALSE(report(fig07, fake_rows(fig07, fair, longest), &printed).held);
  EXPECT_NE(printed.find("n/a"), std::string::npos) << printed;

  // One failed cell of fig14's grid, off the two periods its verdict
  // compares: the values alone would still hold.
  const Entry& fig14 = entry("fig14_oscillation_utilization");
  const auto dip = [](const exp::TrialDesc& d) {
    const double len = d.param("on_off_length", 0);
    return Metrics{{"aggregate_fraction", len == 0.2 ? 0.6 : 0.9},
                   {"drop_rate", len == 3.2 ? 0.01 : 0.05}};
  };
  const auto tfrc_at_1_6 = [](const exp::TrialDesc& d) {
    return d.algorithm == "tfrc:6" && d.param("on_off_length", 0) == 1.6;
  };
  EXPECT_TRUE(report(fig14, fake_rows(fig14, dip)).held);
  EXPECT_FALSE(report(fig14, fake_rows(fig14, dip, tfrc_at_1_6)).held);
  const Entry& fig15 = entry("fig15_oscillation_droprate");
  EXPECT_TRUE(report(fig15, fake_rows(fig15, dip)).held);
  EXPECT_FALSE(report(fig15, fake_rows(fig15, dip, tfrc_at_1_6)).held);

  // Fewer rows than cells reads as missing too.
  EXPECT_FALSE(report(fig14, {}).held);
}

TEST(FigureDriver, ExitStatusFollowsVerdictsAndQuarantine) {
  // `poison` is the registry's failure injector: boom=1 fails the trial.
  const auto entry_over = [](double boom) {
    return Entry{"poison", "Poison", "none",
                 {grid("poison", {"tcp"}, {{"boom", boom}})},
                 [](const Cells& c) {
                   return c.verdict(c.mean(0, "value") >= 0.0, "a value");
                 }};
  };
  const Entry healthy = entry_over(0.0);
  const Entry poisoned = entry_over(1.0);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(run({&healthy}), 0);
  EXPECT_EQ(run({&healthy, &poisoned}), 1);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[SHAPE-DEVIATION] a value"), std::string::npos) << out;
  EXPECT_NE(err.find("quarantined"), std::string::npos) << err;
}

/// Convergence rows: every run converges after `per_unit` s per unit
/// of slowness, except the slowness-2 baseline when `baseline_converges`
/// is false (then the metric reads 0, as the analyzer leaves it).
std::function<Metrics(const exp::TrialDesc&)> convergence(
    double per_unit, bool baseline_converges) {
  return [=](const exp::TrialDesc& d) {
    const bool converged = baseline_converges || slowness(d) != 2.0;
    return Metrics{{"converged", converged ? 1.0 : 0.0},
                   {"convergence_time_s",
                    converged ? per_unit * slowness(d) : 0.0},
                   {"flow1_final_share", 0.5},
                   {"flow2_final_share", 0.5}};
  };
}

TEST(FigureReports, Fig10FailsWhenTcpHalfNeverConverges) {
  const Entry& fig10 = entry("fig10_convergence_tcp");
  EXPECT_TRUE(report(fig10, fake_rows(fig10, convergence(5.0, true))).held);
  // t2 reads 0 here, so `t2 < 60 && t64 > 3 * t2` would pass; an
  // unconverged baseline is "> horizon" and fails the verdict.
  std::string printed;
  EXPECT_FALSE(
      report(fig10, fake_rows(fig10, convergence(5.0, false)), &printed).held);
  EXPECT_NE(printed.find("> horizon"), std::string::npos) << printed;
}

TEST(FigureReports, Fig12HoldsWhenTfrcTwoNeverConverges) {
  const Entry& fig12 = entry("fig12_convergence_tfrc");
  // TFRC(64) takes 32 s. That is 32x a converged 1 s baseline, a
  // deviation; against an unconverged baseline (> the 300 s horizon)
  // it is mild growth, where a 1 s floor would call it a deviation.
  EXPECT_FALSE(report(fig12, fake_rows(fig12, convergence(0.5, true))).held);
  EXPECT_TRUE(report(fig12, fake_rows(fig12, convergence(0.5, false))).held);
}

}  // namespace
}  // namespace slowcc::figures
