#include "exp/registry.hpp"

#include <cstdlib>
#include <exception>
#include <sstream>

#include "scenario/convergence_experiment.hpp"
#include "scenario/fairness_experiment.hpp"
#include "scenario/fk_experiment.hpp"
#include "scenario/flash_crowd_experiment.hpp"
#include "scenario/oscillation_experiment.hpp"
#include "scenario/responsiveness_experiment.hpp"
#include "scenario/smoothness_experiment.hpp"
#include "scenario/static_compat_experiment.hpp"
#include "scenario/stabilization_experiment.hpp"
#include "sim/error.hpp"

namespace slowcc::exp {
namespace {

[[noreturn]] void bad(const std::string& detail) {
  throw sim::SimError(sim::SimErrc::kBadConfig, "exp::registry", detail);
}

/// Apply the generic grid axes (bandwidth, RTT, seed) to a dumbbell.
void apply_net(scenario::DumbbellConfig& net, const TrialDesc& d) {
  if (d.bandwidth_bps > 0) net.bottleneck_bps = d.bandwidth_bps;
  if (d.rtt_ms > 0) {
    // base_rtt = 2 * (access + bottleneck + access); access stays at
    // its default, the bottleneck's propagation delay absorbs the rest.
    const sim::Time two_access = net.access_delay * 2;
    const sim::Time one_way = sim::Time::seconds(d.rtt_ms / 2000.0);
    if (one_way <= two_access) {
      bad("rtt_ms too small for the access delays");
    }
    net.bottleneck_delay = one_way - two_access;
  }
}

/// An experiment-specific duration parameter, scaled by the trial's
/// duration_scale (sweeps and tests shrink whole timelines uniformly).
sim::Time time_param(const TrialDesc& d, std::string_view name,
                     double default_seconds) {
  return sim::Time::seconds(d.param(name, default_seconds) *
                            d.duration_scale);
}

std::pair<scenario::FlowSpec, scenario::FlowSpec> parse_flow_pair(
    std::string_view token) {
  const std::size_t plus = token.find('+');
  if (plus == std::string_view::npos) {
    bad("fairness needs an 'a+b' algorithm pair, got '" +
        std::string(token) + "'");
  }
  return {parse_flow_spec(token.substr(0, plus)),
          parse_flow_spec(token.substr(plus + 1))};
}

Row run_static_compat(const TrialDesc& d) {
  scenario::StaticCompatConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.loss_rate = d.param("loss_rate", cfg.loss_rate);
  cfg.warmup = time_param(d, "warmup", 20.0);
  cfg.measure = time_param(d, "measure", 200.0);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_static_compat(cfg);
  Row r;
  r.set("goodput_bps", out.goodput_bps);
  r.set("padhye_bps", out.padhye_prediction_bps);
  r.set("ratio_to_prediction", out.ratio_to_prediction);
  return r;
}

Row run_stabilization(const TrialDesc& d) {
  scenario::StabilizationConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.num_flows = static_cast<int>(d.param("num_flows", cfg.num_flows));
  cfg.cbr_stop = time_param(d, "cbr_stop", 150.0);
  cfg.cbr_restart = time_param(d, "cbr_restart", 180.0);
  cfg.end = time_param(d, "end", 240.0);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_stabilization(cfg);
  Row r;
  r.set("steady_loss_rate", out.steady_loss_rate);
  r.set("peak_loss_rate_after_restart", out.peak_loss_rate_after_restart);
  r.set("stabilized", out.stabilization.stabilized ? 1.0 : 0.0);
  r.set("stabilization_time_rtts", out.stabilization.stabilization_time_rtts);
  r.set("stabilization_cost", out.stabilization.stabilization_cost);
  return r;
}

/// The fairness CBR's shape, coded as a number so it can be swept:
/// 0 square, 1 sawtooth, 2 reverse sawtooth.
traffic::PatternKind pattern_param(const TrialDesc& d) {
  const double code = d.param("pattern", 0.0);
  if (code == 0.0) return traffic::PatternKind::kSquare;
  if (code == 1.0) return traffic::PatternKind::kSawtooth;
  if (code == 2.0) return traffic::PatternKind::kReverseSawtooth;
  std::ostringstream detail;
  detail << "pattern must be 0 (square), 1 (sawtooth) or 2 (reverse "
            "sawtooth), got "
         << code;
  bad(detail.str());
}

/// A switch parameter: 0 or 1. Any other value fails the trial rather
/// than run as one of them under a cell label that names it.
bool switch_param(const TrialDesc& d, std::string_view name) {
  const double value = d.param(name, 0.0);
  if (value == 0.0 || value == 1.0) return value == 1.0;
  std::ostringstream detail;
  detail << name << " must be 0 or 1, got " << value;
  bad(detail.str());
}

Row run_fairness(const TrialDesc& d) {
  scenario::FairnessConfig cfg;
  const auto [a, b] = parse_flow_pair(d.algorithm);
  cfg.group_a = a;
  cfg.group_b = b;
  cfg.flows_per_group =
      static_cast<int>(d.param("flows_per_group", cfg.flows_per_group));
  cfg.cbr_period = time_param(d, "cbr_period", 2.0);
  cfg.cbr_peak_fraction =
      d.param("cbr_peak_fraction", cfg.cbr_peak_fraction);
  cfg.pattern = pattern_param(d);
  cfg.warmup = time_param(d, "warmup", 20.0);
  cfg.measure = time_param(d, "measure", 200.0);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_fairness(cfg);
  Row r;
  r.set("group_a_mean", out.group_a_mean);
  r.set("group_b_mean", out.group_b_mean);
  r.set("utilization", out.utilization);
  r.set("mean_available_bps", out.mean_available_bps);
  return r;
}

Row run_oscillation(const TrialDesc& d) {
  scenario::OscillationConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.num_flows = static_cast<int>(d.param("num_flows", cfg.num_flows));
  cfg.on_off_length = time_param(d, "on_off_length", 0.2);
  cfg.cbr_peak_fraction =
      d.param("cbr_peak_fraction", cfg.cbr_peak_fraction);
  cfg.warmup = time_param(d, "warmup", 10.0);
  cfg.measure = time_param(d, "measure", 100.0);
  cfg.mode = switch_param(d, "link_mode")
                 ? scenario::OscillationMode::kLinkBandwidth
                 : scenario::OscillationMode::kCbrEmulation;
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_oscillation(cfg);
  Row r;
  r.set("aggregate_fraction", out.aggregate_fraction);
  r.set("drop_rate", out.drop_rate);
  r.set("mean_available_bps", out.mean_available_bps);
  return r;
}

Row run_convergence(const TrialDesc& d) {
  scenario::ConvergenceConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.first_flow_head_start = time_param(d, "head_start", 30.0);
  cfg.horizon = time_param(d, "horizon", 600.0);
  cfg.delta = d.param("delta", cfg.delta);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_convergence(cfg);
  Row r;
  r.set("converged", out.result.converged ? 1.0 : 0.0);
  r.set("convergence_time_s", out.result.convergence_time_s);
  r.set("flow1_final_share", out.flow1_final_share);
  r.set("flow2_final_share", out.flow2_final_share);
  return r;
}

Row run_smoothness(const TrialDesc& d) {
  scenario::SmoothnessConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.pattern = switch_param(d, "bursty")
                    ? scenario::LossPattern::kMoreBursty
                    : scenario::LossPattern::kMildlyBursty;
  cfg.warmup = time_param(d, "warmup", 10.0);
  cfg.measure = time_param(d, "measure", 40.0);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_smoothness(cfg);
  Row r;
  r.set("smoothness", out.smoothness);
  r.set("cov", out.cov);
  r.set("mean_rate_bps", out.mean_rate_bps);
  r.set("scripted_drops", static_cast<double>(out.scripted_drops));
  return r;
}

Row run_fk(const TrialDesc& d) {
  scenario::FkConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.stop_time = time_param(d, "stop_time", 120.0);
  cfg.ks = {static_cast<int>(d.param("k", 20.0))};
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_fk(cfg);
  Row r;
  r.set("f_k", out.f_values.at(0));
  r.set("utilization_before_stop", out.utilization_before_stop);
  return r;
}

Row run_flash_crowd(const TrialDesc& d) {
  scenario::FlashCrowdExperimentConfig cfg;
  cfg.background = parse_flow_spec(d.algorithm);
  cfg.background_flows =
      static_cast<int>(d.param("background_flows", cfg.background_flows));
  cfg.crowd_start = time_param(d, "crowd_start", 25.0);
  cfg.end = time_param(d, "end", 75.0);
  cfg.crowd.duration = time_param(d, "crowd_duration", 5.0);
  cfg.crowd.arrival_rate_fps =
      d.param("arrival_rate_fps", cfg.crowd.arrival_rate_fps);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_flash_crowd(cfg);
  Row r;
  const double started = static_cast<double>(out.crowd_flows_started);
  r.set("crowd_flows_started", started);
  r.set("crowd_completed_fraction",
        started > 0 ? static_cast<double>(out.crowd_flows_completed) / started
                    : 0.0);
  r.set("crowd_mean_completion_s", out.crowd_mean_completion_s);
  r.set("background_during_crowd_bps", out.background_during_crowd_bps);
  r.set("background_after_crowd_bps", out.background_after_crowd_bps);
  return r;
}

Row run_responsiveness(const TrialDesc& d) {
  scenario::ResponsivenessConfig cfg;
  cfg.spec = parse_flow_spec(d.algorithm);
  cfg.warmup = time_param(d, "warmup", 30.0);
  cfg.horizon = time_param(d, "horizon", 120.0);
  apply_net(cfg.net, d);
  cfg.seed = d.seed;
  const auto out = scenario::run_responsiveness(cfg);
  Row r;
  r.set("halved", out.halved ? 1.0 : 0.0);
  r.set("responsiveness_rtts", out.responsiveness_rtts);
  r.set("aggressiveness_pkts_per_rtt", out.aggressiveness_pkts_per_rtt);
  return r;
}

}  // namespace

scenario::FlowSpec parse_flow_spec(std::string_view token) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= token.size()) {
    const std::size_t colon = token.find(':', start);
    parts.emplace_back(token.substr(
        start, colon == std::string_view::npos ? std::string_view::npos
                                               : colon - start));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts[0].empty()) {
    bad("empty algorithm token");
  }
  bool conservative = false;
  if (parts.back() == "c") {
    conservative = true;
    parts.pop_back();
  }
  double gamma = 0.0;
  if (parts.size() > 2) bad("malformed algorithm token: '" +
                            std::string(token) + "'");
  if (parts.size() == 2) {
    char* end = nullptr;
    gamma = std::strtod(parts[1].c_str(), &end);
    if (parts[1].empty() || end != parts[1].c_str() + parts[1].size() ||
        gamma <= 0) {
      bad("malformed gamma in '" + std::string(token) + "'");
    }
  }
  const std::string& kind = parts[0];
  if (conservative && kind != "tfrc") bad("':c' is only meaningful for tfrc");
  if (kind == "tcp") return scenario::FlowSpec::tcp(gamma > 0 ? gamma : 2.0);
  if (kind == "sqrt") return scenario::FlowSpec::sqrt(gamma > 0 ? gamma : 2.0);
  if (kind == "rap") return scenario::FlowSpec::rap(gamma > 0 ? gamma : 2.0);
  if (kind == "iiad") return scenario::FlowSpec::iiad();
  if (kind == "tear") return scenario::FlowSpec::tear();
  if (kind == "tfrc") {
    return scenario::FlowSpec::tfrc(gamma > 0 ? static_cast<int>(gamma) : 6,
                                    conservative);
  }
  bad("unknown algorithm kind: '" + kind + "'");
}

namespace {

/// The registry proper: built-ins first, then anything registered at
/// runtime. Function-local static so the built-ins self-initialize on
/// first use; mutable so `register_experiment` can append.
std::vector<Experiment>& registry_storage() {
  static std::vector<Experiment> experiments = {
      {"static_compat",
       "single flow vs Bernoulli loss; goodput against the Padhye "
       "prediction (paper SS2)",
       {"goodput_bps", "padhye_bps", "ratio_to_prediction"},
       {"loss_rate=0.01", "warmup=20", "measure=200"},
       run_static_compat},
      {"stabilization",
       "20 flows + restarting CBR; drop-rate spike and stabilization "
       "time/cost (Figures 3-5)",
       {"steady_loss_rate", "peak_loss_rate_after_restart", "stabilized",
        "stabilization_time_rtts", "stabilization_cost"},
       {"num_flows=20", "cbr_stop=150", "cbr_restart=180", "end=240"},
       run_stabilization},
      {"fairness",
       "two flow groups under on/off CBR (pattern 0 square, 1 sawtooth, "
       "2 reverse sawtooth); normalized throughput per group (Figures "
       "7-9); algorithm token is 'a+b'",
       {"group_a_mean", "group_b_mean", "utilization", "mean_available_bps"},
       {"flows_per_group=5", "cbr_period=2", "cbr_peak_fraction=0.667",
        "pattern=0", "warmup=20", "measure=200"},
       run_fairness},
      {"oscillation",
       "10 flows under oscillating available bandwidth; throughput "
       "fraction and drop rate (Figures 14-16)",
       {"aggregate_fraction", "drop_rate", "mean_available_bps"},
       {"num_flows=10", "on_off_length=0.2", "cbr_peak_fraction=0.667",
        "warmup=10", "measure=100", "link_mode=0"},
       run_oscillation},
      {"convergence",
       "late-joining flow vs an established one; delta-fair convergence "
       "time (Figures 10-12)",
       {"converged", "convergence_time_s", "flow1_final_share",
        "flow2_final_share"},
       {"head_start=30", "horizon=600", "delta=0.1"},
       run_convergence},
      {"smoothness",
       "single flow under scripted loss; rate smoothness and CoV "
       "(Figures 17-19)",
       {"smoothness", "cov", "mean_rate_bps", "scripted_drops"},
       {"bursty=0", "warmup=10", "measure=40"},
       run_smoothness},
      {"fk",
       "half the flows stop; f(k) utilization over the next k RTTs "
       "(Figure 13)",
       {"f_k", "utilization_before_stop"},
       {"stop_time=120", "k=20"},
       run_fk},
      {"flash_crowd",
       "long-lived background vs a crowd of short TCP transfers "
       "(Figure 6)",
       {"crowd_flows_started", "crowd_completed_fraction",
        "crowd_mean_completion_s", "background_during_crowd_bps",
        "background_after_crowd_bps"},
       {"background_flows=10", "crowd_start=25", "end=75",
        "crowd_duration=5", "arrival_rate_fps=200"},
       run_flash_crowd},
      {"responsiveness",
       "RTTs of persistent congestion until the rate halves (paper SS3)",
       {"halved", "responsiveness_rtts", "aggressiveness_pkts_per_rtt"},
       {"warmup=30", "horizon=120"},
       run_responsiveness},
  };
  return experiments;
}

}  // namespace

const std::vector<Experiment>& experiments() { return registry_storage(); }

void register_experiment(Experiment e) {
  if (e.name.empty()) bad("cannot register an experiment with no name");
  if (!e.run) {
    bad("experiment '" + e.name + "' has no run function");
  }
  if (find_experiment(e.name) != nullptr) {
    bad("experiment '" + e.name + "' is already registered");
  }
  registry_storage().push_back(std::move(e));
}

const Experiment* find_experiment(std::string_view name) {
  for (const Experiment& e : experiments()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Row run_trial(const TrialDesc& desc) {
  const Experiment* e = find_experiment(desc.experiment);
  if (e == nullptr) {
    bad("unknown experiment: '" + desc.experiment + "'");
  }
  Row row;
  try {
    row = e->run(desc);
  } catch (const sim::SimError& ex) {
    row.metrics.clear();
    row.error = ex.what();
    row.outcome.ok = false;
    row.outcome.error_kind = sim::to_string(ex.code());
  } catch (const std::exception& ex) {
    row.metrics.clear();
    row.error = ex.what();
    row.outcome.ok = false;
    row.outcome.error_kind = "exception";
  }
  row.trial_id = desc.trial_id;
  row.experiment = desc.experiment;
  row.algorithm = desc.algorithm;
  row.cell = desc.cell_key();
  row.trial_index = desc.trial_index;
  row.seed = desc.seed;
  row.axes.clear();
  if (desc.bandwidth_bps > 0) {
    row.set_axis("bandwidth_mbps", desc.bandwidth_bps / 1e6);
  }
  if (desc.rtt_ms > 0) row.set_axis("rtt_ms", desc.rtt_ms);
  for (const auto& [k, v] : desc.params) row.set_axis(k, v);
  return row;
}

}  // namespace slowcc::exp
