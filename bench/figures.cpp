// The figure table's driver and the helpers its reports share.
#include "figures.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "exp/parallel_runner.hpp"
#include "sim/simulator.hpp"

namespace slowcc::figures {

const Entry* find(std::string_view name) {
  for (const Entry& e : table()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Plan plan(const std::vector<const Entry*>& entries) {
  Plan p;
  // Canonical grid text -> its first trial and trial count.
  std::map<std::string, std::pair<std::size_t, std::size_t>> spans;
  for (const Entry* e : entries) {
    std::vector<std::size_t>& input = p.inputs.emplace_back();
    for (const exp::SweepSpec& g : e->grids) {
      auto [it, fresh] = spans.try_emplace(g.to_text());
      if (fresh) {
        std::vector<exp::TrialDesc> trials = g.expand();
        it->second = {p.trials.size(), trials.size()};
        for (exp::TrialDesc& d : trials) {
          d.trial_id = p.trials.size();
          p.trials.push_back(std::move(d));
        }
        ++p.distinct_grids;
      }
      const auto [first, count] = it->second;
      for (std::size_t i = first; i < first + count; ++i) input.push_back(i);
    }
  }
  return p;
}

int run(const std::vector<const Entry*>& entries) {
  const Plan p = plan(entries);
  std::fprintf(stderr, "slowcc_figures: %zu entries, %zu grids, %zu trials\n",
               entries.size(), p.distinct_grids, p.trials.size());
  exp::ParallelRunner runner(exp::ParallelRunner::default_jobs());
  exp::RunnerPolicy policy;
  // A trial that runs away becomes a reported failure row instead of a
  // run that never finishes, at the same event on every host.
  policy.max_trial_events = exp::kMaxTrialEvents;
  runner.set_policy(policy);
  const std::vector<exp::Row> rows = runner.run(p.trials);

  bool ok = true;
  std::uint64_t events = 0;
  for (const exp::Row& r : rows) {
    events += r.outcome.events;
    if (r.error.empty()) continue;
    ok = false;
    std::fprintf(stderr, "!! quarantined: %s trial %d: %s\n", r.cell.c_str(),
                 r.trial_index, r.error.c_str());
  }
  // Direct entries simulate inside their reports, on this thread.
  const std::uint64_t report_start = sim::Simulator::thread_events_executed();
  const char* rule =
      "================================================================";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = *entries[i];
    std::printf("%s\n%s\n%s\npaper: %s\n", rule, e.title.c_str(), rule,
                e.paper.c_str());
    std::vector<exp::Row> input;
    for (const std::size_t t : p.inputs[i]) input.push_back(rows[t]);
    const Verdict v = e.report(Cells(input));
    std::printf("[%s] %s\n\n", v.held ? "SHAPE-OK" : "SHAPE-DEVIATION",
                v.what.c_str());
    ok = ok && v.held;
  }
  events += sim::Simulator::thread_events_executed() - report_start;
  std::fprintf(stderr, "slowcc_figures: %" PRIu64 " events simulated\n",
               events);
  return ok ? 0 : 1;
}

exp::SweepSpec grid(std::string experiment,
                    std::vector<std::string> algorithms,
                    std::map<std::string, double> fixed, int trials) {
  exp::SweepSpec g;
  g.experiment = std::move(experiment);
  g.algorithms = std::move(algorithms);
  g.fixed = std::move(fixed);
  g.trials = trials;
  return g;
}

void line(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

std::string num(double v, const char* fmt) {
  if (std::isnan(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

void emit(const exp::JsonObjectBuilder& o) {
  std::printf("%s\n", o.str().c_str());
}

const exp::MetricStats& Cells::stats(std::size_t i,
                                     std::string_view metric) const {
  static const exp::MetricStats kMissing = [] {
    exp::MetricStats m;
    m.mean = m.ci95 = std::numeric_limits<double>::quiet_NaN();
    return m;
  }();
  const exp::MetricStats* m =
      i < cells_.size() ? cells_[i].metric(metric) : nullptr;
  if (m != nullptr) return *m;
  complete_ = false;
  return kMissing;
}

std::string Cells::mean_ci(std::size_t i, std::string_view metric,
                           const char* fmt) const {
  const exp::MetricStats& m = stats(i, metric);
  std::string out = figures::num(m.mean, fmt);
  if (m.n > 1) out += " ± " + figures::num(m.ci95, fmt);
  return out;
}

}  // namespace slowcc::figures
