#pragma once

// The paper's figure table: one entry per reproduced figure, ablation
// and extension. `slowcc_figures` runs the selected entries and drains
// every distinct registry grid once, so figures that read the same
// simulations share them.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/serialize.hpp"
#include "exp/sweep_spec.hpp"

namespace slowcc::figures {

/// `v` through `fmt`, or "n/a" when `v` is NaN (a missing metric).
[[nodiscard]] std::string num(double v, const char* fmt);

/// Whether the paper's qualitative shape held, and the claim checked.
struct Verdict {
  bool held = false;
  std::string what;
};

/// The per-cell statistics of a report's rows. `exp::aggregate` keeps a
/// cell whose every trial failed, with no metrics; a lookup there (or
/// past the last cell) yields NaNs that print as "n/a", and fails the
/// verdict.
class Cells {
 public:
  explicit Cells(const std::vector<exp::Row>& rows)
      : cells_(exp::aggregate(rows)) {}

  [[nodiscard]] const exp::MetricStats& stats(std::size_t i,
                                              std::string_view metric) const;
  [[nodiscard]] double mean(std::size_t i, std::string_view metric) const {
    return stats(i, metric).mean;
  }
  [[nodiscard]] std::string num(std::size_t i, std::string_view metric,
                                const char* fmt) const {
    return figures::num(mean(i, metric), fmt);
  }
  /// "mean ± ci95" (just the mean for one trial).
  [[nodiscard]] std::string mean_ci(std::size_t i, std::string_view metric,
                                    const char* fmt) const;
  [[nodiscard]] Verdict verdict(bool held, std::string what) const {
    return {held && complete_, std::move(what)};
  }

 private:
  std::vector<exp::CellStats> cells_;
  mutable bool complete_ = true;  // false once a lookup missed
};

struct Entry {
  std::string name;   // e.g. "fig04_stabilization_time"
  std::string title;  // e.g. "Figure 4 — stabilization time vs ..."
  std::string paper;  // what the paper reports
  /// Registry grids the report reads; none for an entry that calls its
  /// scenario driver or closed form directly.
  std::vector<exp::SweepSpec> grids;
  /// Prints the figure from the cells of `grids` (in grid order, each
  /// in expansion order) and returns the verdict those cells support.
  std::function<Verdict(const Cells&)> report;
};

/// Every entry, in figure order (figure_table.cpp).
[[nodiscard]] const std::vector<Entry>& table();
[[nodiscard]] const Entry* find(std::string_view name);  // nullptr if none

/// The trials of a set of entries, each distinct grid once: grids are
/// shared when their canonical `SweepSpec::to_text()` renderings match.
struct Plan {
  std::vector<exp::TrialDesc> trials;  // trial_id == position
  std::vector<std::vector<std::size_t>> inputs;  // per entry, into trials
  std::size_t distinct_grids = 0;
};
[[nodiscard]] Plan plan(const std::vector<const Entry*>& entries);

/// Drain the plan of `entries` on every core, then print each entry's
/// block. Last, one stderr line counts the events simulated by the
/// trials and the reports (`tools/repro_ledger.py` reads it). Returns 0
/// when every verdict held and no trial failed, else 1.
[[nodiscard]] int run(const std::vector<const Entry*>& entries);

/// A registry grid with `trials` replicates per cell at base seed 1.
[[nodiscard]] exp::SweepSpec grid(std::string experiment,
                                  std::vector<std::string> algorithms,
                                  std::map<std::string, double> fixed = {},
                                  int trials = 1);

/// printf to stdout, plus a newline.
void line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Print a JSON row (exp/serialize formatting: NaN prints as `null`).
void emit(const exp::JsonObjectBuilder& o);

}  // namespace slowcc::figures
