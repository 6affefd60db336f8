#include "scenario/fk_experiment.hpp"

#include <algorithm>

#include "metrics/throughput_monitor.hpp"
#include "metrics/utilization.hpp"

namespace slowcc::scenario {

FkOutcome run_fk(const FkConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  std::vector<cc::Agent*> stoppers;
  std::vector<net::FlowId> survivors;
  for (int i = 0; i < config.num_flows; ++i) {
    Dumbbell::Flow& f = net.add_flow(config.spec);
    if (i < config.flows_to_stop) {
      stoppers.push_back(f.agent);
    } else {
      survivors.push_back(f.id);
    }
  }

  const sim::Time rtt = config.net.base_rtt();
  metrics::ThroughputMonitor survivors_tp(
      sim, net.bottleneck(), rtt, [survivors](const net::Packet& p) {
        return std::find(survivors.begin(), survivors.end(), p.flow) !=
               survivors.end();
      });
  metrics::ThroughputMonitor all_tp(
      sim, net.bottleneck(), rtt, [](const net::Packet& p) {
        return p.type == net::PacketType::kData ||
               p.type == net::PacketType::kTfrcData ||
               p.type == net::PacketType::kTearData;
      });

  net.start_flows();
  net.finalize();

  sim.schedule_at(config.stop_time, [&stoppers] {
    for (auto* a : stoppers) a->stop();
  });

  const int max_k = *std::max_element(config.ks.begin(), config.ks.end());
  const sim::Time end =
      config.stop_time + rtt * static_cast<std::int64_t>(max_k + 5);
  sim.run_until(end);
  net.audit();

  FkOutcome out;
  out.ks = config.ks;
  for (int k : config.ks) {
    out.f_values.push_back(metrics::f_of_k(survivors_tp, config.stop_time, k,
                                           rtt, config.net.bottleneck_bps));
  }
  out.utilization_before_stop = metrics::utilization_between(
      all_tp, config.stop_time - sim::Time::seconds(20.0), config.stop_time,
      config.net.bottleneck_bps);
  return out;
}

}  // namespace slowcc::scenario
