#include "scenario/convergence_experiment.hpp"

#include "metrics/throughput_monitor.hpp"

namespace slowcc::scenario {

ConvergenceOutcome run_convergence(const ConvergenceConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  // The paper's §4.2.2 model is pure AIMD from a (B - b0, b0) start;
  // slow start would let the joining flow leapfrog to a fair share in a
  // handful of RTTs regardless of b. Window-based flows therefore join
  // in congestion avoidance.
  FlowSpec spec = config.spec;
  spec.disable_slow_start = true;

  Dumbbell::Flow& f1 = net.add_flow(spec);
  Dumbbell::Flow& f2 = net.add_flow(spec);

  const sim::Time rtt = config.net.base_rtt();
  metrics::ThroughputMonitor tp1(
      sim, net.bottleneck(), rtt,
      [id = f1.id](const net::Packet& p) { return p.flow == id; });
  metrics::ThroughputMonitor tp2(
      sim, net.bottleneck(), rtt,
      [id = f2.id](const net::Packet& p) { return p.flow == id; });

  net.finalize();

  sim.schedule_at(sim::Time(), [agent = f1.agent] { agent->start(); });
  sim.schedule_at(config.first_flow_head_start,
                  [agent = f2.agent] { agent->start(); });

  sim.run_until(config.horizon);
  net.audit();

  // Collect byte series aligned on RTT bins.
  std::vector<std::int64_t> s1;
  std::vector<std::int64_t> s2;
  const std::size_t bins =
      static_cast<std::size_t>(config.horizon.as_nanos() / rtt.as_nanos());
  for (std::size_t i = 0; i < bins; ++i) {
    s1.push_back(tp1.bytes_in_bin(i));
    s2.push_back(tp2.bytes_in_bin(i));
  }

  ConvergenceOutcome out;
  out.result = metrics::compute_convergence(
      s1, s2, rtt, config.first_flow_head_start, config.delta);

  const sim::Time tail0 = config.horizon - rtt * 10;
  const double b1 = static_cast<double>(tp1.bytes_between(tail0, config.horizon));
  const double b2 = static_cast<double>(tp2.bytes_between(tail0, config.horizon));
  if (b1 + b2 > 0) {
    out.flow1_final_share = b1 / (b1 + b2);
    out.flow2_final_share = b2 / (b1 + b2);
  }
  return out;
}

}  // namespace slowcc::scenario
