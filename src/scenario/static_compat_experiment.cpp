#include "scenario/static_compat_experiment.hpp"

#include "cc/response_function.hpp"
#include "metrics/throughput_monitor.hpp"
#include "sim/rng.hpp"
#include "traffic/loss_script.hpp"

namespace slowcc::scenario {

StaticCompatOutcome run_static_compat(const StaticCompatConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  Dumbbell::Flow& flow = net.add_flow(config.spec);

  // Bernoulli drops on data packets only, on a stream derived from the
  // experiment's master seed (the topology consumes the master itself).
  auto rng = std::make_shared<sim::Rng>(sim::derive_seed(config.seed, 1));
  const double p = config.loss_rate;
  net.bottleneck().set_forced_drop_filter(
      [rng, p](const net::Packet& pkt) {
        if (!traffic::LossScript::is_data(pkt)) return false;
        return rng->chance(p);
      });

  metrics::ThroughputMonitor tp(
      sim, net.bottleneck(), sim::Time::millis(100),
      [](const net::Packet& pkt) {
        return traffic::LossScript::is_data(pkt);
      });

  net.finalize();
  sim.schedule_at(sim::Time(), [agent = flow.agent] { agent->start(); });

  const sim::Time t0 = config.warmup;
  const sim::Time t1 = config.warmup + config.measure;
  sim.run_until(t1);
  net.audit();

  StaticCompatOutcome out;
  out.goodput_bps = tp.rate_bps_between(t0, t1);
  out.padhye_prediction_bps =
      8.0 * cc::padhye_rate_bytes_per_sec(config.loss_rate,
                                          config.net.base_rtt(),
                                          config.spec.packet_size);
  if (out.padhye_prediction_bps > 0.0) {
    out.ratio_to_prediction = out.goodput_bps / out.padhye_prediction_bps;
  }
  return out;
}

}  // namespace slowcc::scenario
