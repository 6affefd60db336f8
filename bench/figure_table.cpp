// The figure table: every reproduced figure, ablation and extension of
// the paper, in figure order, with the reports that print them.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/aimd_model.hpp"
#include "analysis/convergence_model.hpp"
#include "analysis/timeout_model.hpp"
#include "cc/response_function.hpp"
#include "cc/tcp_agent.hpp"
#include "cc/tcp_sink.hpp"
#include "exp/registry.hpp"
#include "fault/fault_script.hpp"
#include "fault/invariant_auditor.hpp"
#include "figures.hpp"
#include "net/topology.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/fk_experiment.hpp"
#include "scenario/flash_crowd_experiment.hpp"
#include "scenario/smoothness_experiment.hpp"
#include "scenario/stabilization_experiment.hpp"
#include "sim/rng.hpp"

namespace slowcc::figures {
namespace {

using scenario::FlowSpec;
using scenario::SmoothnessOutcome;

// ---- Stabilization (§4.1): a CBR source idles and restarts; each
// mechanism's drop-rate spike, stabilization time and cost (Figures
// 3-5), the flash crowd of Figure 6, and two ablations. ----

// The paper's 0-150-180 s CBR schedule, compressed: on 0-60 s, idle
// 60-75 s, restart at 75 s.
scenario::StabilizationOutcome restart(const FlowSpec& spec, double end,
                                       bool red = true) {
  scenario::StabilizationConfig cfg;
  cfg.spec = spec;
  cfg.net.red = red;
  cfg.cbr_stop = sim::Time::seconds(60);
  cfg.cbr_restart = sim::Time::seconds(75);
  cfg.end = sim::Time::seconds(end);
  return run_stabilization(cfg);
}

exp::SweepSpec restart_grid(double end, std::vector<std::string> algorithms,
                            int trials) {
  return grid("stabilization", std::move(algorithms),
              {{"cbr_stop", 60}, {"cbr_restart", 75}, {"end", end}}, trials);
}

// TCP(1/2), TFRC(256), and TFRC(256) with self-clocking.
const FlowSpec kRestartSpecs[] = {FlowSpec::tcp(2), FlowSpec::tfrc(256),
                                  FlowSpec::tfrc(256, true)};
constexpr int kFig03Trials = 5;

Verdict fig03(const Cells& c) {
  const char* labels[] = {"TCP(1/2)", "TFRC(256)", "TFRC(256)+self-clock"};
  std::vector<std::vector<double>> traces;
  for (const FlowSpec& s : kRestartSpecs) {
    traces.push_back(restart(s, 140).loss_rate_series);
  }
  line("%-8s %-12s %-12s %-22s", "t (s)", labels[0], labels[1], labels[2]);
  for (double t = 70.0; t <= 138.0; t += 2.0) {  // from just before restart
    const auto idx = static_cast<std::size_t>(t / 0.05);
    auto at = [&](std::size_t i) {
      return idx < traces[i].size() ? traces[i][idx] : 0.0;
    };
    line("%-8.0f %-12.3f %-12.3f %-22.3f", t, at(0), at(1), at(2));
  }
  line("(time series above: single trial, seed 1)");
  line("%-22s %-20s %-20s", "mechanism", "steady loss",
       "peak after restart");
  for (std::size_t i = 0; i < 3; ++i) {
    line("%-22s %-20s %-20s", labels[i],
         c.mean_ci(i, "steady_loss_rate", "%.3f").c_str(),
         c.mean_ci(i, "peak_loss_rate_after_restart", "%.3f").c_str());
    const exp::MetricStats& steady = c.stats(i, "steady_loss_rate");
    const exp::MetricStats& peak = c.stats(i, "peak_loss_rate_after_restart");
    emit(exp::JsonObjectBuilder()
             .add("bench", "fig03_drop_rate")
             .add("mechanism", labels[i])
             .add("trials", static_cast<std::uint64_t>(peak.n))
             .add("steady_loss_mean", steady.mean)
             .add("steady_loss_ci95", steady.ci95)
             .add("peak_loss_mean", peak.mean)
             .add("peak_loss_ci95", peak.ci95));
  }
  const auto peak = [&](std::size_t i) {
    return c.mean(i, "peak_loss_rate_after_restart");
  };
  return c.verdict(
      peak(1) > 0.25 && peak(1) > peak(0) && peak(2) < peak(1),
      "restart causes a large drop spike; TFRC(256) suffers a "
      "higher/longer spike than TCP; self-clocking reduces it (means over " +
          std::to_string(kFig03Trials) + " trials)");
}

// Figures 4 and 5 read one grid: five mechanisms at five slowness
// parameters, γ-major, so cell (g, m) is g * kMechanisms + m.
constexpr int kGammas[] = {2, 8, 32, 128, 256};
enum Mechanism : std::size_t { kTcp, kRap, kSqrt, kTfrc, kTfrcSc, kMechanisms };

exp::SweepSpec gamma_grid() {
  std::vector<std::string> algorithms;
  for (const int g : kGammas) {
    const std::string s = std::to_string(g);
    for (const char* kind : {"tcp:", "rap:", "sqrt:", "tfrc:"}) {
      algorithms.push_back(kind + s);
    }
    algorithms.push_back("tfrc:" + s + ":c");
  }
  return restart_grid(150, std::move(algorithms), 1);
}

/// Prints the γ × mechanism table of `metric`, and returns a reader of
/// its cell (g, m).
auto gamma_table(const Cells& c, const char* metric, const char* fmt) {
  line("%-6s %10s %10s %10s %10s %12s", "γ", "TCP(1/γ)", "RAP(1/γ)",
       "SQRT(1/γ)", "TFRC(γ)", "TFRC(γ)+SC");
  for (std::size_t g = 0; g < std::size(kGammas); ++g) {
    std::string v[kMechanisms];
    for (std::size_t k = 0; k < kMechanisms; ++k) {
      v[k] = c.num(g * kMechanisms + k, metric, fmt);
    }
    line("%-6d %10s %10s %10s %10s %12s", kGammas[g], v[0].c_str(),
         v[1].c_str(), v[2].c_str(), v[3].c_str(), v[4].c_str());
  }
  return [&c, metric](std::size_t g, Mechanism k) {
    return c.mean(g * kMechanisms + k, metric);
  };
}

Verdict fig04(const Cells& c) {
  const auto at = gamma_table(c, "stabilization_time_rtts", "%.0f");
  return c.verdict(at(4, kTfrc) > 2.0 * at(4, kTcp) &&  // γ = 256
                       at(4, kRap) > 2.0 * at(4, kTcp) &&
                       at(4, kTfrcSc) < 2.0 * at(4, kTfrc),
                   "at γ=256 the rate-based algorithms take far longer to "
                   "stabilize than self-clocked TCP; self-clocking improves "
                   "TFRC(256)");
}

Verdict fig05(const Cells& c) {
  const auto at = gamma_table(c, "stabilization_cost", "%.2f");
  return c.verdict(at(4, kRap) > 10.0 * at(4, kTcp) &&  // γ = 256
                       at(4, kTfrc) > 2.0 * at(4, kTcp) &&
                       at(1, kTfrc) < 5.0 && at(1, kTcp) < 5.0,  // γ = 8
                   "rate-based algorithms at γ=256 cost 1-2 orders of "
                   "magnitude more than TCP(1/256); proposed-deployment "
                   "parameters stay cheap");
}

Verdict fig06(const Cells&) {
  const char* labels[] = {"TCP(1/2)", "TFRC(256) no self-clock",
                          "TFRC(256) self-clock"};
  // The crowd completes most flows under every background, and the
  // backgrounds recover after the crowd subsides.
  bool crowd_served = true;
  bool recovery = true;
  for (std::size_t i = 0; i < 3; ++i) {
    scenario::FlashCrowdExperimentConfig cfg;
    cfg.background = kRestartSpecs[i];
    const scenario::FlashCrowdOutcome o = run_flash_crowd(cfg);
    line("-- background: %s --", labels[i]);
    line("  crowd flows: %zu started, %zu completed, mean fct %.2f s",
         o.crowd_flows_started, o.crowd_flows_completed,
         o.crowd_mean_completion_s);
    line("  background during crowd: %.2f Mb/s; after crowd: %.2f Mb/s",
         o.background_during_crowd_bps / 1e6,
         o.background_after_crowd_bps / 1e6);
    line("  %-8s %-14s %-14s", "t (s)", "background", "crowd (Mb/s)");
    for (std::size_t bin = 40; bin < o.background_bps.size() && bin < 90;
         bin += 4) {
      line("  %-8.1f %-14.2f %-14.2f", o.times_s[bin],
           o.background_bps[bin] / 1e6, o.crowd_bps[bin] / 1e6);
    }
    crowd_served = crowd_served &&
                   o.crowd_flows_completed > 0.8 * o.crowd_flows_started;
    recovery = recovery && o.background_after_crowd_bps >
                               0.5 * o.background_during_crowd_bps;
  }
  return {crowd_served && recovery,
          "the flash crowd gets served under every background type and "
          "the background traffic recovers afterwards"};
}

Verdict ablation_conservative_c(const Cells&) {
  line("%-8s %14s %14s %12s", "C", "stab (RTTs)", "stab cost",
       "steady loss");
  double cost_low = 0, cost_high = 0;
  for (const double c_val : {1.02, 1.1, 1.3, 1.5, 2.0}) {
    FlowSpec spec = FlowSpec::tfrc(256, true);
    spec.tfrc_conservative_c = c_val;
    const scenario::StabilizationOutcome out = restart(spec, 150);
    const double cost = out.stabilization.stabilization_cost;
    line("%-8.2f %14.0f %14.2f %12.3f", c_val,
         out.stabilization.stabilization_time_rtts, cost,
         out.steady_loss_rate);
    if (c_val == 1.02) cost_low = cost;
    if (c_val == 2.0) cost_high = cost;
  }
  return {cost_low <= cost_high * 1.25,
          "tighter C does not worsen (and generally improves) the "
          "stabilization cost"};
}

Verdict ablation_queue_discipline(const Cells&) {
  const char* labels[] = {"TCP(1/2)", "TFRC(256)", "TFRC(256)+SC"};
  line("%-22s %10s %14s %14s", "mechanism", "queue", "stab (RTTs)",
       "stab cost");
  double drop_tail_cost[3] = {};
  for (const bool red : {true, false}) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto s = restart(kRestartSpecs[i], 150, red).stabilization;
      line("%-22s %10s %14.0f %14.2f", labels[i], red ? "RED" : "DropTail",
           s.stabilization_time_rtts, s.stabilization_cost);
      if (!red) drop_tail_cost[i] = s.stabilization_cost;
    }
  }
  return {drop_tail_cost[1] > drop_tail_cost[0] &&
              drop_tail_cost[2] < drop_tail_cost[1] * 1.2,
          "under DropTail, TFRC(256) still costs more than TCP and "
          "self-clocking still does not hurt"};
}

// ---- Oscillating bandwidth (§4.2.1, §4.3): fairness between two flow
// groups as the CBR period varies (Figures 7-9), and utilization and
// drop rate as the ON/OFF length varies (Figures 14-16). ----

constexpr double kPeriods[] = {0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
constexpr int kFig07Trials = 3;

/// One single-cell grid per CBR period, since the measurement window
/// scales with the period (at least 15 cycles). Cell i is kPeriods[i].
std::vector<exp::SweepSpec> period_grids(const std::string& pair,
                                         int trials) {
  std::vector<exp::SweepSpec> grids;
  for (const double period : kPeriods) {
    grids.push_back(grid("fairness", {pair},
                         {{"cbr_period", period},
                          {"measure", std::max(120.0, 15.0 * period)}},
                         trials));
  }
  return grids;
}

Verdict fig07(const Cells& c) {
  line("%-10s %16s %16s %16s", "period(s)", "TCP mean", "TFRC mean",
       "utilization");
  bool tcp_wins_midrange = true;
  bool tfrc_never_wins_big = true;
  for (std::size_t i = 0; i < std::size(kPeriods); ++i) {
    const double period = kPeriods[i];
    const exp::MetricStats& tcp = c.stats(i, "group_a_mean");
    const exp::MetricStats& tfrc = c.stats(i, "group_b_mean");
    const exp::MetricStats& util = c.stats(i, "utilization");
    line("%-10.2f %16s %16s %16s", period,
         c.mean_ci(i, "group_a_mean", "%.2f").c_str(),
         c.mean_ci(i, "group_b_mean", "%.2f").c_str(),
         c.mean_ci(i, "utilization", "%.2f").c_str());
    emit(exp::JsonObjectBuilder()
             .add("bench", "fig07_fairness_tcp_tfrc")
             .add("cbr_period_s", period)
             .add("trials", static_cast<std::uint64_t>(tcp.n))
             .add("tcp_mean", tcp.mean)
             .add("tcp_ci95", tcp.ci95)
             .add("tfrc_mean", tfrc.mean)
             .add("tfrc_ci95", tfrc.ci95)
             .add("utilization_mean", util.mean)
             .add("utilization_ci95", util.ci95));
    if (period >= 1.0 && period <= 8.0 && tcp.mean <= tfrc.mean) {
      tcp_wins_midrange = false;
    }
    if (tfrc.mean > 1.15 * tcp.mean) tfrc_never_wins_big = false;
  }
  line("(throughput normalized by each flow's fair share of the average "
       "available bandwidth; mean ± 95%% CI over %d trials)",
       kFig07Trials);
  line("utilization at period 0.1s=%s vs 0.2s (4 RTTs)=%s",
       c.num(0, "utilization", "%.2f").c_str(),
       c.num(1, "utilization", "%.2f").c_str());
  return c.verdict(tcp_wins_midrange && tfrc_never_wins_big,
                   "TCP receives more than TFRC at mid-range periods and "
                   "TFRC never significantly beats TCP");
}

/// Prints a single-seed TCP-vs-`b_label` period sweep; returns whether
/// group b beat TCP by over 20% at a period in [lo, hi].
bool b_wins_big(const Cells& c, const char* b_label, double lo, double hi) {
  line("%-10s %10s %12s %12s", "period(s)", "TCP mean", b_label,
       "utilization");
  bool wins = false;
  for (std::size_t i = 0; i < std::size(kPeriods); ++i) {
    const double a = c.mean(i, "group_a_mean");
    const double b = c.mean(i, "group_b_mean");
    line("%-10.2f %10s %12s %12s", kPeriods[i], num(a, "%.2f").c_str(),
         num(b, "%.2f").c_str(), c.num(i, "utilization", "%.2f").c_str());
    wins = wins || (kPeriods[i] >= lo && kPeriods[i] <= hi && b > 1.2 * a);
  }
  return wins;
}

Verdict fig08(const Cells& c) {
  return c.verdict(!b_wins_big(c, "TCP(1/8) mean", 1.0, 8.0),
                   "TCP(1/8) does not take bandwidth away from standard TCP "
                   "under dynamic conditions");
}

Verdict fig09(const Cells& c) {
  return c.verdict(!b_wins_big(c, "SQRT(1/2) mean", 0.0, 1e9),
                   "SQRT never takes significantly more than TCP under "
                   "oscillating bandwidth");
}

const char* const kOscillationLabels[] = {"TCP(1/8)", "TCP", "TFRC(6)"};
const std::vector<double> kFig14Lengths = {0.05, 0.1, 0.2, 0.4,
                                           0.8,  1.6, 3.2};
const std::vector<double> kFig16Lengths = {0.1, 0.2, 0.4, 0.8,
                                           1.6, 3.2, 6.4};
constexpr int kFig14Trials = 3;

/// The three mechanisms over ON/OFF `lengths`, mechanism-major.
exp::SweepSpec oscillation_grid(const std::vector<double>& lengths,
                                int trials,
                                std::map<std::string, double> fixed = {}) {
  exp::SweepSpec g = grid("oscillation", {"tcp:8", "tcp:2", "tfrc:6"},
                          std::move(fixed), trials);
  g.sweep_param = "on_off_length";
  g.sweep_values = lengths;
  return g;
}

/// The header of a mechanism x ON/OFF length table, columns `width` wide.
void length_header(int width) {
  line("%-12s %*s %*s %*s", "on/off (s)", width, kOscillationLabels[0],
       width, kOscillationLabels[1], width, kOscillationLabels[2]);
}

/// The three mechanisms' `metric` means at ON/OFF length index `p`.
std::array<double, 3> at(const Cells& c, std::size_t n_lengths,
                         std::size_t p, const char* metric) {
  return {c.mean(p, metric), c.mean(n_lengths + p, metric),
          c.mean(2 * n_lengths + p, metric)};
}

Verdict fig14(const Cells& c) {
  const std::size_t n = kFig14Lengths.size();
  length_header(16);
  double short_min = 1.0, fourrtt_max = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const double len = kFig14Lengths[p];
    line("%-12.2f %16s %16s %16s", len,
         c.mean_ci(p, "aggregate_fraction", "%.2f").c_str(),
         c.mean_ci(n + p, "aggregate_fraction", "%.2f").c_str(),
         c.mean_ci(2 * n + p, "aggregate_fraction", "%.2f").c_str());
    for (std::size_t a = 0; a < 3; ++a) {
      const exp::MetricStats& ms = c.stats(a * n + p, "aggregate_fraction");
      emit(exp::JsonObjectBuilder()
               .add("bench", "fig14_oscillation_utilization")
               .add("mechanism", kOscillationLabels[a])
               .add("on_off_s", len)
               .add("trials", static_cast<std::uint64_t>(ms.n))
               .add("fraction_mean", ms.mean)
               .add("fraction_ci95", ms.ci95));
    }
    const auto v = at(c, n, p, "aggregate_fraction");
    if (len == 0.05) short_min = std::min({v[0], v[1], v[2]});
    if (len == 0.2) fourrtt_max = std::max({v[0], v[1], v[2]});
  }
  line("(mean ± 95%% CI over %d trials per cell)", kFig14Trials);
  return c.verdict(short_min > fourrtt_max,
                   "50 ms bursts are absorbed by the queue while 200 ms "
                   "(4-RTT) oscillations hurt every mechanism");
}

Verdict fig15(const Cells& c) {
  length_header(10);
  double peak = 0.0, at_3s = 1.0;
  for (std::size_t p = 0; p < kFig14Lengths.size(); ++p) {
    const auto v = at(c, kFig14Lengths.size(), p, "drop_rate");
    line("%-12.2f %10s %10s %10s", kFig14Lengths[p],
         num(v[0], "%.3f").c_str(), num(v[1], "%.3f").c_str(),
         num(v[2], "%.3f").c_str());
    peak = std::max({peak, v[0], v[1], v[2]});
    if (kFig14Lengths[p] == 3.2) at_3s = std::max({v[0], v[1], v[2]});
  }
  line("(mean over %d trials per cell: the Figure 14 simulations)",
       kFig14Trials);
  return c.verdict(peak > at_3s,
                   "drop rate is worst at short-to-mid oscillation periods "
                   "and relaxes for slow oscillations");
}

Verdict fig16(const Cells& c) {
  length_header(10);
  bool tfrc_suffers_somewhere = false;
  bool nobody_great = true;
  for (std::size_t p = 0; p < kFig16Lengths.size(); ++p) {
    const double len = kFig16Lengths[p];
    const auto v = at(c, kFig16Lengths.size(), p, "aggregate_fraction");
    line("%-12.2f %10s %10s %10s", len, num(v[0], "%.2f").c_str(),
         num(v[1], "%.2f").c_str(), num(v[2], "%.2f").c_str());
    if (v[2] < v[1] - 0.08) tfrc_suffers_somewhere = true;
    if (len >= 0.2 && len <= 3.2 && std::max({v[0], v[1], v[2]}) > 0.97) {
      nobody_great = false;
    }
  }
  return c.verdict(tfrc_suffers_somewhere && nobody_great,
                   "10:1 oscillations hurt everyone; TFRC falls clearly "
                   "behind TCP at some change frequencies");
}

// ---- Convergence and the models (§4.2.2-4.2.3, §3, Appendix A): the
// time to a 0.1-fair share (Figures 10-12), f(k) after the bandwidth
// doubles (Figure 13), the throughput equations (Figure 20), the static
// TCP-compatibility premise of §2, and §3's responsiveness. ----

constexpr int kSlowness[] = {2, 4, 8, 16, 32, 64, 128};

exp::SweepSpec convergence_grid(const std::string& kind,
                                std::initializer_list<int> slowness,
                                double horizon) {
  std::vector<std::string> algorithms;
  for (const int g : slowness) algorithms.push_back(kind + std::to_string(g));
  return grid("convergence", std::move(algorithms),
              {{"head_start", 20}, {"horizon", horizon}});
}

/// Prints cell `i`'s convergence time and final shares after `label`,
/// and returns the time. A run that never converged reads as the
/// horizon ("> horizon"): its time metric is 0, not a measurement.
double convergence_row(const Cells& c, std::size_t i,
                       const std::string& label, double horizon) {
  const bool converged = c.mean(i, "converged") != 0.0;  // NaN if missing
  const double t = converged ? c.mean(i, "convergence_time_s") : horizon;
  const std::string shares = c.num(i, "flow1_final_share", "%.2f") + "/" +
                             c.num(i, "flow2_final_share", "%.2f");
  line("%s %14s %14s", label.c_str(),
       converged ? num(t, "%.1f").c_str() : "> horizon", shares.c_str());
  return t;
}

double fig10_horizon(int gamma) { return gamma >= 32 ? 900.0 : 300.0; }

Verdict fig10(const Cells& c) {
  line("%-8s %-10s %14s %14s", "γ (1/b)", "b", "time (s)", "final shares");
  double t[std::size(kSlowness)];
  for (std::size_t i = 0; i < std::size(kSlowness); ++i) {
    const double gamma = kSlowness[i];
    t[i] = convergence_row(
        c, i, num(gamma, "%-8.0f") + " " + num(1.0 / gamma, "%-10.4f"),
        fig10_horizon(kSlowness[i]));
  }
  return c.verdict(t[0] < 60.0 && t[5] > 3.0 * t[0],  // TCP(1/2), TCP(1/64)
                   "standard TCP converges in seconds; TCP(1/64) takes far "
                   "longer (growing steeply with 1/b)");
}

Verdict fig11(const Cells&) {
  line("%-10s %-10s %16s", "γ (1/b)", "b", "expected ACKs");
  double acks2 = 0, acks256 = 0;
  for (const double gamma : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
    const double acks = analysis::expected_acks_to_fairness(
        1.0 / gamma, /*p=*/0.1, /*delta=*/0.1);
    line("%-10.0f %-10.4f %16.0f", gamma, 1.0 / gamma, acks);
    if (gamma == 2) acks2 = acks;
    if (gamma == 256) acks256 = acks;
  }
  line("closed form check: log(0.1)/log(1-0.05) = %.1f ACKs at b=1/2",
       std::log(0.1) / std::log(0.95));
  return {acks256 > 100.0 * acks2,
          "ACK count grows ~1/b: b=1/256 needs two orders of magnitude more "
          "ACKs than b=1/2"};
}

Verdict fig12(const Cells& c) {
  line("%-8s %14s %14s", "k", "time (s)", "final shares");
  double t[std::size(kSlowness)];
  for (std::size_t i = 0; i < std::size(kSlowness); ++i) {
    t[i] = convergence_row(c, i, num(kSlowness[i], "%-8.0f"), 300.0);
  }
  return c.verdict(  // TFRC(64) against TFRC(2)
      t[5] < 20.0 * std::max(t[0], 1.0),
      "TFRC convergence grows far slower in k than TCP(b) does in 1/b "
      "(compare Figure 10: TCP(1/64) vs TCP(1/2) spans a much wider range)");
}

Verdict fig13(const Cells&) {
  std::vector<std::pair<std::string, FlowSpec>> cases;
  for (const int g : {2, 8, 64, 256}) {
    cases.emplace_back(num(g, "TCP(1/%-4.0f)"), FlowSpec::tcp(g));
  }
  for (const int g : {2, 8, 64, 256}) {
    cases.emplace_back(num(g, "SQRT(1/%-3.0f)"), FlowSpec::sqrt(g));
  }
  for (const int k : {6, 8, 64, 256}) {
    FlowSpec spec = FlowSpec::tfrc(k);
    spec.tfrc_history_discounting = false;  // as the paper ran it
    cases.emplace_back(num(k, "TFRC(%-5.0f)"), spec);
  }
  line("%-12s %10s %10s %14s", "mechanism", "f(20)", "f(200)",
       "util before");
  std::vector<std::vector<double>> f;  // f(20), f(200) per case
  for (const auto& [label, spec] : cases) {
    scenario::FkConfig cfg;
    cfg.spec = spec;
    cfg.stop_time = sim::Time::seconds(120.0);
    const scenario::FkOutcome out = run_fk(cfg);
    line("%s %10.2f %10.2f %14.2f", label.c_str(), out.f_values[0],
         out.f_values[1], out.utilization_before_stop);
    f.push_back(out.f_values);
  }
  const double tcp_f20 = f[0][0], tcp256_f20 = f[3][0], tfrc8_f20 = f[9][0];
  return {tcp_f20 > 0.8 && tcp_f20 > tfrc8_f20 + 0.1 &&
              tcp_f20 > tcp256_f20 + 0.2 && f[3][1] < 0.95,
          "fast TCP reclaims the doubled bandwidth; TFRC(8) and the very "
          "slow variants lag, the slowest still below full utilization "
          "after 200 RTTs"};
}

Verdict fig20(const Cells&) {
  line("%-10s %14s %16s %14s", "p", "pure AIMD", "AIMD w/ timeouts",
       "Reno (Padhye)");
  bool bounds_hold = true;
  for (const double p :
       {0.01, 0.05, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    const double pure =
        p <= 1.0 / 3.0 ? cc::simple_response_pkts_per_rtt(p) : std::nan("");
    const double with_to =
        p >= 0.5 ? analysis::aimd_with_timeouts_pkts_per_rtt(p) : std::nan("");
    const double reno = cc::padhye_pkts_per_rtt(p);
    line("%-10.3f %14.3f %16.3f %14.3f", p, pure, with_to, reno);
    // Upper-bound property checked over the figure's plotted range
    // (p <= ~0.8): beyond that the Padhye formula leaves its own
    // validity range and the curves cross.
    if (p >= 0.5 && p <= 0.8 && !(with_to > reno)) bounds_hold = false;
  }
  const double half = analysis::aimd_with_timeouts_pkts_per_rtt(0.5);
  line("spot check: p=1/2 timeout model = %.4f (paper: 2/3)", half);
  return {bounds_hold && std::abs(half - 2.0 / 3.0) < 1e-9,
          "timeout model reproduces the 2/3 pkts/RTT point at p=1/2 and "
          "upper-bounds the Reno curve in its validity range"};
}

const std::vector<std::string> kStaticAlgorithms = {"tcp:2", "tcp:8",
                                                    "sqrt:2", "tfrc:6",
                                                    "rap:2"};
const std::vector<double> kLossRates = {0.005, 0.01, 0.02, 0.05};

exp::SweepSpec static_grid() {
  exp::SweepSpec g = grid("static_compat", kStaticAlgorithms);
  g.sweep_param = "loss_rate";
  g.sweep_values = kLossRates;
  return g;
}

Verdict static_compat(const Cells& c) {
  line("%-12s %8s %12s %12s %8s", "mechanism", "p", "goodput", "predicted",
       "ratio");
  bool all_close = true;
  for (std::size_t a = 0; a < kStaticAlgorithms.size(); ++a) {
    const std::string label =
        exp::parse_flow_spec(kStaticAlgorithms[a]).label();
    for (std::size_t l = 0; l < kLossRates.size(); ++l) {
      const std::size_t i = a * kLossRates.size() + l;
      const double ratio = c.mean(i, "ratio_to_prediction");
      line("%-12s %8.3f %9s Mb/s %9s Mb/s %8s", label.c_str(), kLossRates[l],
           num(c.mean(i, "goodput_bps") / 1e6, "%.2f").c_str(),
           num(c.mean(i, "padhye_bps") / 1e6, "%.2f").c_str(),
           num(ratio, "%.2f").c_str());
      if (ratio < 0.33 || ratio > 3.5) all_close = false;
    }
  }
  return c.verdict(all_close,
                   "every mechanism stays within a small factor of the TCP "
                   "response function under static loss");
}

const std::vector<std::string> kResponsive = {"tcp:2",  "tcp:8",  "tcp:32",
                                              "sqrt:2", "tfrc:6", "tfrc:32"};

Verdict ext_responsiveness(const Cells& c) {
  line("%-12s %16s %18s %18s", "mechanism", "resp (RTTs)", "analytic (RTTs)",
       "aggr (pkts/RTT)");
  for (std::size_t i = 0; i < kResponsive.size(); ++i) {
    const FlowSpec s = exp::parse_flow_spec(kResponsive[i]);
    // TCP(b)'s analytic responsiveness is log_{1-b}(1/2).
    const std::string analytic =
        s.kind == scenario::CcKind::kTcp
            ? num(analysis::aimd_responsiveness_rtts(1.0 / s.gamma), "%.2f")
            : "-";
    line("%-12s %16s %18s %18s", s.label().c_str(),
         c.num(i, "responsiveness_rtts", "%.0f").c_str(), analytic.c_str(),
         c.num(i, "aggressiveness_pkts_per_rtt", "%.2f").c_str());
  }
  const double tcp = c.mean(0, "responsiveness_rtts");
  const double tfrc6 = c.mean(4, "responsiveness_rtts");
  return c.verdict(tcp <= 4.0 && tfrc6 >= tcp && tfrc6 <= 30.0,
                   "TCP halves its rate within a few RTTs of persistent "
                   "congestion; TFRC(6) is slower but bounded");
}

// ---- Smoothness (§4.4) and the extensions: a lone flow under scripted
// loss (Figures 17-19, and TEAR from §2), delayed ACKs, and recovery
// after a bottleneck blackout. ----

/// A lone `spec` flow under the mildly bursty loss pattern, or under
/// the adversarial one over six full 7-second cycles.
SmoothnessOutcome smoothness(const FlowSpec& spec, bool bursty = false) {
  scenario::SmoothnessConfig cfg;
  cfg.spec = spec;
  if (bursty) {
    cfg.pattern = scenario::LossPattern::kMoreBursty;
    cfg.measure = sim::Time::seconds(42.0);
  }
  return run_smoothness(cfg);
}

/// The header and rows of a smoothness table, labels `width` wide.
void rate_header(int width) {
  line("%-*s %12s %10s %14s", width, "flow", "smoothness", "CoV",
       "mean (Mb/s)");
}
SmoothnessOutcome rate_row(int width, const char* label,
                           const SmoothnessOutcome& o) {
  line("%-*s %12.2f %10.2f %14.2f", width, label, o.smoothness, o.cov,
       o.mean_rate_bps / 1e6);
  return o;
}

SmoothnessOutcome trace(const char* label, const SmoothnessOutcome& o) {
  line("-- %s: smoothness=%.2f CoV=%.2f mean=%.2f Mb/s drops=%lld --", label,
       o.smoothness, o.cov, o.mean_rate_bps / 1e6,
       static_cast<long long>(o.scripted_drops));
  std::printf("   0.2s-bins (Mb/s):");
  for (std::size_t i = 0; i < o.fine_rate_bps.size() && i < 60; i += 3) {
    std::printf(" %.1f", o.fine_rate_bps[i] / 1e6);
  }
  std::printf("\n");
  return o;
}

Verdict fig17(const Cells&) {
  const auto tfrc = trace("TFRC(6)", smoothness(FlowSpec::tfrc(6)));
  const auto tcp8 = trace("TCP(1/8)", smoothness(FlowSpec::tcp(8)));
  return {tfrc.cov < tcp8.cov && tfrc.mean_rate_bps > 0.7 * tcp8.mean_rate_bps,
          "TFRC is smoother than TCP(1/8) under the mild pattern without "
          "giving up meaningful throughput"};
}

Verdict fig18(const Cells&) {
  rate_header(10);
  const auto tfrc =
      rate_row(10, "TFRC(6)", smoothness(FlowSpec::tfrc(6), true));
  const auto tcp8 =
      rate_row(10, "TCP(1/8)", smoothness(FlowSpec::tcp(8), true));
  rate_row(10, "TCP(1/2)", smoothness(FlowSpec::tcp(2), true));
  return {tfrc.cov > tcp8.cov && tfrc.mean_rate_bps < tcp8.mean_rate_bps,
          "the adversarial pattern makes TFRC both rougher and slower than "
          "TCP(1/8) — the reverse of Figure 17"};
}

Verdict fig19(const Cells& c) {
  rate_header(8);
  const char* labels[] = {"IIAD", "SQRT"};
  for (std::size_t i = 0; i < 2; ++i) {
    line("%-8s %12s %10s %14s", labels[i],
         c.num(i, "smoothness", "%.2f").c_str(),
         c.num(i, "cov", "%.2f").c_str(),
         num(c.mean(i, "mean_rate_bps") / 1e6, "%.2f").c_str());
  }
  return c.verdict(c.mean(0, "cov") <= c.mean(1, "cov") + 0.05 &&
                       c.mean(0, "mean_rate_bps") < c.mean(1, "mean_rate_bps"),
                   "IIAD trades throughput for smoothness relative to SQRT");
}

Verdict ext_tear_smoothness(const Cells&) {
  rate_header(8);
  const auto tear = rate_row(8, "TEAR", smoothness(FlowSpec::tear()));
  const auto tcp = rate_row(8, "TCP(1/2)", smoothness(FlowSpec::tcp(2)));
  rate_row(8, "TFRC(6)", smoothness(FlowSpec::tfrc(6)));
  return {tear.cov < tcp.cov && tear.mean_rate_bps > 0.4 * tcp.mean_rate_bps,
          "TEAR's receiver-side averaging yields a smoother rate than TCP at "
          "usable throughput"};
}

/// One TCP over a 50 Mb/s link with a fixed 1% Bernoulli loss, which
/// isolates the window-growth effect: {goodput (Mb/s), ACKs per segment}.
std::pair<double, double> acks_run(bool delayed) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node& src = topo.add_node();
  net::Node& dst = topo.add_node();
  net::Link* fwd =
      topo.add_duplex(src, dst, 50e6, sim::Time::millis(25), 300).first;
  cc::TcpSink sink(sim, dst);
  sink.set_delayed_acks(delayed);
  auto tcp = cc::TcpAgent::make_tcp(sim, src, dst.id(), sink.local_port(), 1);
  topo.compute_routes();
  auto rng = std::make_shared<sim::Rng>(11);
  fwd->set_forced_drop_filter([rng](const net::Packet& p) {
    return p.type == net::PacketType::kData && rng->chance(0.01);
  });
  tcp->start();
  sim.run_until(sim::Time::seconds(120.0));
  return {sink.bytes_received() * 8.0 / 120.0 / 1e6,
          static_cast<double>(sink.acks_sent()) /
              static_cast<double>(sink.packets_received())};
}

Verdict ext_delayed_acks(const Cells&) {
  const auto [imm_mbps, imm_acks] = acks_run(false);
  const auto [del_mbps, del_acks] = acks_run(true);
  line("%-18s %14s %16s", "mode", "goodput", "ACKs per segment");
  line("%-18s %11.2f Mb/s %16.2f", "immediate ACKs", imm_mbps, imm_acks);
  line("%-18s %11.2f Mb/s %16.2f", "delayed ACKs", del_mbps, del_acks);
  return {del_acks < 0.75 * imm_acks && del_mbps < imm_mbps &&
              del_mbps > 0.4 * imm_mbps,
          "delayed ACKs halve the ACK stream and cost some (but not "
          "catastrophic) throughput at fixed loss"};
}

constexpr double kSampleSec = 0.1;
constexpr double kBlackoutStart = 15.0;
constexpr double kBlackoutLen = 2.0;
constexpr double kEndSec = 35.0;

/// Runs `spec` alone on the dumbbell, audited for packet conservation,
/// with the bottleneck dark for 2 s mid-run; prints its row and returns
/// whether it climbed back to 80% of its pre-blackout rate, kept half
/// of that rate over the last 10 s, and passed every audit.
bool blackout(const char* label, const FlowSpec& spec) {
  sim::Simulator sim;
  scenario::DumbbellConfig cfg;
  cfg.seed = 42;
  scenario::Dumbbell net(sim, cfg);
  auto& flow = net.add_flow(spec);

  fault::FaultScript script;
  script.blackout(net.bottleneck(), sim::Time::seconds(kBlackoutStart),
                  sim::Time::seconds(kBlackoutLen));
  fault::FaultInjector injector(sim, cfg.seed);
  injector.arm(script);
  fault::InvariantAuditor auditor(sim, {.period = sim::Time::millis(100),
                                        .throw_on_violation = false});
  auditor.watch_topology(net.topology());
  auditor.start();

  const int n_samples = static_cast<int>(kEndSec / kSampleSec) + 1;
  std::vector<std::int64_t> bytes(static_cast<std::size_t>(n_samples), 0);
  for (int k = 0; k < n_samples; ++k) {
    sim.schedule_at(sim::Time::seconds(k * kSampleSec), [&bytes, &flow, k] {
      bytes[static_cast<std::size_t>(k)] = flow.sink->bytes_received();
    });
  }
  net.start_flows();
  net.finalize();
  sim.run_until(sim::Time::seconds(kEndSec));

  auto window_bps = [&](double t0, double t1) {
    const auto a = static_cast<std::size_t>(t0 / kSampleSec);
    const auto b = static_cast<std::size_t>(t1 / kSampleSec);
    return static_cast<double>(bytes[b] - bytes[a]) * 8.0 / (t1 - t0);
  };
  const double pre = window_bps(kBlackoutStart - 5.0, kBlackoutStart);
  const double post = window_bps(kEndSec - 10.0, kEndSec);
  const std::uint64_t violations = auditor.violations().size();
  // First 0.5 s window after restoration at 80% of the pre rate.
  const double up = kBlackoutStart + kBlackoutLen;
  double recovery = -1.0;
  for (int k = static_cast<int>(up / kSampleSec) + 5; k < n_samples; ++k) {
    const double t = k * kSampleSec;
    if (window_bps(t - 0.5, t) >= 0.8 * pre) {
      recovery = t - up;
      break;
    }
  }
  line("%-10s %14.0f %14.0f %14.2f %10s", label, pre, post, recovery,
       violations == 0 ? "clean" : "VIOLATED");
  emit(exp::JsonObjectBuilder()
           .add("bench", "ext_blackout_recovery")
           .add("mechanism", label)
           .add("blackout_s", kBlackoutLen)
           .add("pre_bps", pre)
           .add("post_bps", post)
           .add("recovery_s", recovery)
           .add("audit_violations", violations));
  return recovery >= 0.0 && post >= 0.5 * pre && violations == 0;
}

Verdict ext_blackout_recovery(const Cells&) {
  line("%-10s %14s %14s %14s %10s", "mechanism", "pre (bps)", "post (bps)",
       "recovery (s)", "audits");
  bool held = blackout("TCP", FlowSpec::tcp());
  held = blackout("TFRC(6)", FlowSpec::tfrc(6)) && held;
  held = blackout("RAP", FlowSpec::rap()) && held;
  return {held,
          "every mechanism climbs back to 80% of its pre-blackout rate and "
          "the runs hold packet conservation under audit"};
}

}  // namespace

const std::vector<Entry>& table() {
  static const std::vector<Entry> entries = {
      {"fig03_drop_rate",
       "Figure 3 — drop rate when the CBR source restarts after idling",
       "transient spike of ~40% drops at the restart; TCP returns to the "
       "steady rate within a couple of RTTs, TFRC(256) without "
       "self-clocking keeps the loss rate elevated for tens of seconds",
       {restart_grid(140, {"tcp:2", "tfrc:256", "tfrc:256:c"}, kFig03Trials)},
       fig03},
      {"fig04_stabilization_time",
       "Figure 4 — stabilization time vs slowness parameter γ",
       "self-clocked algorithms (TCP(1/γ), SQRT(1/γ)) stabilize within tens "
       "of RTTs for every γ; rate-based TFRC(γ)/RAP(1/γ) without "
       "self-clocking climb into the hundreds of RTTs as γ grows; adding "
       "self-clocking to TFRC flattens its curve",
       {gamma_grid()}, fig04},
      {"fig05_stabilization_cost",
       "Figure 5 — stabilization cost vs slowness parameter γ",
       "for large γ the rate-based mechanisms cost up to two orders of "
       "magnitude more than the most slowly-responsive TCP(1/γ) or "
       "SQRT(1/γ); with the proposed deployment range (γ <= 8) every "
       "mechanism's cost stays small; self-clocking repairs TFRC(256)",
       {gamma_grid()}, fig05},
      {"fig06_flash_crowd",
       "Figure 6 — flash crowd of short TCP flows vs long-lived SlowCC",
       "the crowd grabs bandwidth quickly regardless of the background "
       "(short flows are in slow-start); self-clocking helps TFRC(256) "
       "yield promptly and recover cleanly afterwards",
       {}, fig06},
      {"fig07_fairness_tcp_tfrc",
       "Figure 7 — TCP vs TFRC throughput under 3:1 oscillating bandwidth",
       "with CBR periods between ~1 and ~10 s, TCP flows receive more "
       "throughput than TFRC; utilization is high for very short periods "
       "and dips around a period of 0.2 s (4 RTTs); TFRC never beats TCP in "
       "the long run",
       period_grids("tcp:2+tfrc:6", kFig07Trials), fig07},
      {"fig08_fairness_tcp_tcp8",
       "Figure 8 — TCP vs TCP(1/8) throughput under 3:1 oscillating "
       "bandwidth",
       "TCP(1/8) is reasonably prompt at decreasing but slower at claiming "
       "new bandwidth, so standard TCP gets at least its share at mid-range "
       "periods; the effect is milder than against TFRC",
       period_grids("tcp:2+tcp:8", 1), fig08},
      {"fig09_fairness_tcp_sqrt",
       "Figure 9 — TCP vs SQRT(1/2) throughput under 3:1 oscillating "
       "bandwidth",
       "like the other SlowCCs, SQRT is slower at increasing into freed "
       "bandwidth, so TCP is at least competitive at every period and SQRT "
       "never wins in the long term",
       period_grids("tcp:2+sqrt:2", 1), fig09},
      {"fig10_convergence_tcp",
       "Figure 10 — 0.1-fair convergence time for two TCP(b) flows vs b",
       "convergence is quick for b >= ~0.2 and grows steeply (exponentially "
       "in the analysis) as b shrinks; very slow TCP(1/b) variants take "
       "hundreds of seconds",
       {convergence_grid("tcp:", {2, 4, 8, 16}, fig10_horizon(2)),
        convergence_grid("tcp:", {32, 64, 128}, fig10_horizon(32))},
       fig10},
      {"fig11_convergence_acks",
       "Figure 11 — expected ACKs to 0.1-fairness, log_{1-bp}(0.1), p = 0.1",
       "for b >= ~0.2 convergence needs few ACKs; below that the count grows "
       "like 1/b — exponentially longer convergence for very slow AIMD "
       "variants (shape identical for other p)",
       {}, fig11},
      {"fig12_convergence_tfrc",
       "Figure 12 — 0.1-fair convergence time for two TFRC(k) flows vs k",
       "unlike TCP(b), TFRC's convergence time grows only mildly with its "
       "slowness parameter: the equation adjusts to the loss-interval "
       "average rather than by repeated multiplicative steps",
       {convergence_grid("tfrc:", {2, 4, 8, 16, 32, 64, 128}, 300)}, fig12},
      {"fig13_fk_utilization",
       "Figure 13 — f(20) and f(200) after the available bandwidth doubles",
       "paper: TCP ~0.86 at f(20); TCP(1/8) ~0.75; TFRC(8) ~0.65; "
       "TCP(1/256)/TFRC(256) only ~0.60 at f(20) and 0.65-0.70 even after "
       "200 RTTs — slower mechanisms waste newly-available bandwidth",
       {}, fig13},
      // Figures 14 and 15 read one grid.
      {"fig14_oscillation_utilization",
       "Figure 14 — throughput fraction vs ON/OFF length, 3:1 oscillation",
       "50 ms bursts are absorbed by the RED queue (high throughput for "
       "all); around 200 ms (4 RTTs) every mechanism drops below ~80% of "
       "the average available bandwidth; longer periods recover",
       {oscillation_grid(kFig14Lengths, kFig14Trials)}, fig14},
      {"fig15_oscillation_droprate",
       "Figure 15 — drop rate vs ON/OFF length, 3:1 oscillation",
       "drop rates peak where utilization dips (periods of a few RTTs): "
       "each CBR burst slams a queue the flows had just refilled",
       {oscillation_grid(kFig14Lengths, kFig14Trials)}, fig15},
      {"fig16_oscillation_10to1",
       "Figure 16 — throughput fraction vs ON/OFF length, 10:1 oscillation",
       "none of the mechanisms do well; at certain change frequencies TFRC "
       "performs particularly badly relative to TCP — an environment with "
       "varying load yields lower utilization with SlowCC than TCP",
       // 15 <-> 1.5 Mb/s available.
       {oscillation_grid(kFig16Lengths, 1, {{"cbr_peak_fraction", 0.9}})},
       fig16},
      {"fig17_smoothness_mild",
       "Figure 17 — TFRC vs TCP(1/8) with a mildly bursty loss pattern",
       "the pattern fits inside TFRC's averaging window, so TFRC holds a "
       "nearly constant rate and is considerably smoother than TCP(1/8), "
       "with slightly higher throughput",
       {}, fig17},
      {"fig18_smoothness_bursty",
       "Figure 18 — TFRC vs TCP(1/8) with the adversarial bursty loss "
       "pattern",
       "the heavy-congestion second supplants TFRC's entire memory while the "
       "light phase cannot fully restore it, so TFRC does worse than "
       "TCP(1/8) — and even TCP(1/2) — in both smoothness and throughput",
       {}, fig18},
      {"fig19_smoothness_binomial",
       "Figure 19 — IIAD and SQRT with the mildly bursty loss pattern",
       "IIAD reduces additively and increases slowly, achieving smoothness "
       "at the cost of throughput relative to SQRT",
       {grid("smoothness", {"iiad", "sqrt:2"})}, fig19},
      {"fig20_timeout_model",
       "Figure 20 — response-function models with and without timeouts",
       "pure AIMD sqrt(1.5/p) applies for p < ~1/3; the 'AIMD with timeouts' "
       "line extends the model to rates below one packet/RTT (2/3 pkts/RTT "
       "at p = 1/2) and upper-bounds Reno, whose Padhye formula is the "
       "lower bound",
       {}, fig20},
      {"static_compat",
       "Static compatibility — goodput under steady loss vs the TCP "
       "response function",
       "under a fixed loss rate every TCP-compatible mechanism obtains "
       "roughly the throughput of the TCP response function — the static "
       "condition all the dynamic experiments start from",
       {static_grid()}, static_compat},
      {"ablation_conservative_c",
       "Ablation — conservative option constant C for TFRC(256)+self-clock",
       "smaller C enforces packet conservation harder: cheaper stabilization "
       "after a bandwidth drop, slower growth in good times (the paper "
       "picked C = 1.1; the ns-2 default was 1.5)",
       {}, ablation_conservative_c},
      {"ablation_queue_discipline",
       "Ablation — RED vs DropTail for the stabilization scenario",
       "the self-clocking benefit is not a RED artifact: the ordering (TCP "
       "cheap, rate-based TFRC(256) expensive, self-clocking helps) holds "
       "under DropTail too",
       {}, ablation_queue_discipline},
      {"ext_responsiveness",
       "Extension (paper §3) — empirical responsiveness & aggressiveness",
       "responsiveness of TCP is 1 RTT; currently proposed TFRC is 4-6 RTTs; "
       "TCP(b)'s analytic responsiveness is log_{1-b}(1/2); AIMD "
       "aggressiveness is the increase parameter a",
       {grid("responsiveness", kResponsive)}, ext_responsiveness},
      {"ext_tear_smoothness",
       "Extension (paper §2) — TEAR smoothness under the mild bursty "
       "pattern",
       "TEAR keeps TCP's window dynamics but averages the window at the "
       "receiver, so its sending rate should be smoother than TCP's while "
       "carrying comparable throughput",
       {}, ext_tear_smoothness},
      {"ext_delayed_acks",
       "Extension — delayed acknowledgments vs the paper's TCPs",
       "the paper's TCPs send one ACK per segment; RFC 1122 delayed ACKs "
       "halve the ACK rate and slow window growth, lowering throughput at a "
       "fixed loss rate",
       {}, ext_delayed_acks},
      {"ext_blackout_recovery",
       "Extension (robustness) — throughput recovery after a 2 s "
       "bottleneck blackout",
       "slowly-responsive mechanisms react to bandwidth changes over many "
       "RTTs; after a blackout every mechanism must rediscover the path, "
       "and smoother mechanisms are expected to ramp back slower",
       {}, ext_blackout_recovery},
  };
  return entries;
}

}  // namespace slowcc::figures
