#include "scenario/smoothness_experiment.hpp"

#include "metrics/smoothness.hpp"
#include "metrics/throughput_monitor.hpp"

namespace slowcc::scenario {

SmoothnessOutcome run_smoothness(const SmoothnessConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  Dumbbell::Flow& flow = net.add_flow(config.spec);

  std::unique_ptr<traffic::LossScript> script;
  switch (config.pattern) {
    case LossPattern::kMildlyBursty:
      script = std::make_unique<traffic::CountedLossScript>(
          std::vector<std::int64_t>{50, 50, 50, 400, 400, 400});
      break;
    case LossPattern::kMoreBursty:
      script = std::make_unique<traffic::TimedPhaseLossScript>(
          sim, std::vector<traffic::TimedPhaseLossScript::Phase>{
                   {sim::Time::seconds(6.0), 200},
                   {sim::Time::seconds(1.0), 4},
               });
      break;
  }
  script->install(net.bottleneck());

  auto is_data = [](const net::Packet& p) {
    return p.type == net::PacketType::kData ||
           p.type == net::PacketType::kTfrcData ||
           p.type == net::PacketType::kTearData;
  };
  metrics::ThroughputMonitor fine(sim, net.bottleneck(), config.fine_bin,
                                  is_data);
  metrics::ThroughputMonitor coarse(sim, net.bottleneck(), config.coarse_bin,
                                    is_data);

  net.finalize();
  sim.schedule_at(sim::Time(), [agent = flow.agent] { agent->start(); });

  const sim::Time t0 = config.warmup;
  const sim::Time t1 = config.warmup + config.measure;
  sim.run_until(t1);
  net.audit();

  SmoothnessOutcome out;
  out.fine_rate_bps = fine.rate_series_bps(t0, t1);
  out.coarse_rate_bps = coarse.rate_series_bps(t0, t1);
  out.smoothness = metrics::smoothness_metric(out.fine_rate_bps);
  out.cov = metrics::coefficient_of_variation(out.fine_rate_bps);
  out.mean_rate_bps = fine.rate_bps_between(t0, t1);
  if (auto* counted = dynamic_cast<traffic::CountedLossScript*>(script.get())) {
    out.scripted_drops = counted->drops();
  } else if (auto* timed =
                 dynamic_cast<traffic::TimedPhaseLossScript*>(script.get())) {
    out.scripted_drops = timed->drops();
  }
  return out;
}

}  // namespace slowcc::scenario
