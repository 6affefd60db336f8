#include "scenario/flash_crowd_experiment.hpp"

#include "metrics/throughput_monitor.hpp"

namespace slowcc::scenario {

FlashCrowdOutcome run_flash_crowd(const FlashCrowdExperimentConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  for (int i = 0; i < config.background_flows; ++i) {
    net.add_flow(config.background);
  }
  net.add_reverse_traffic();

  // Crowd endpoints: one source host on the left, one server host on
  // the right, like a popular web server behind the bottleneck.
  net::Node& crowd_src = net.topology().add_node("crowd-src");
  net::Node& crowd_dst = net.topology().add_node("crowd-dst");
  net.topology().add_duplex(crowd_src, net.left_router(), config.net.access_bps,
                            config.net.access_delay, 1000);
  net.topology().add_duplex(crowd_dst, net.right_router(),
                            config.net.access_bps, config.net.access_delay,
                            1000);

  traffic::FlashCrowdConfig crowd_cfg = config.crowd;
  crowd_cfg.seed = sim::derive_seed(config.seed, 1);
  traffic::FlashCrowd crowd(sim, crowd_src, crowd_dst, crowd_cfg);

  const net::FlowId crowd_first = config.crowd.first_flow_id;
  metrics::ThroughputMonitor background_tp(
      sim, net.bottleneck(), config.bin, [crowd_first](const net::Packet& p) {
        return p.flow < crowd_first &&
               (p.type == net::PacketType::kData ||
                p.type == net::PacketType::kTfrcData ||
                p.type == net::PacketType::kTearData);
      });
  metrics::ThroughputMonitor crowd_tp(
      sim, net.bottleneck(), config.bin, [crowd_first](const net::Packet& p) {
        return p.flow >= crowd_first && p.type == net::PacketType::kData;
      });

  net.start_flows();
  net.finalize();
  crowd.start_at(config.crowd_start);

  sim.run_until(config.end);
  net.audit();

  FlashCrowdOutcome out;
  out.background_bps = background_tp.rate_series_bps(sim::Time(), config.end);
  out.crowd_bps = crowd_tp.rate_series_bps(sim::Time(), config.end);
  for (std::size_t i = 0; i < out.background_bps.size(); ++i) {
    out.times_s.push_back(static_cast<double>(i + 1) *
                          config.bin.as_seconds());
  }
  out.crowd_flows_started = crowd.flows_started();
  out.crowd_flows_completed = crowd.flows_completed();
  out.crowd_mean_completion_s = crowd.mean_completion_seconds();
  out.crowd_total_mbytes =
      static_cast<double>(crowd.total_bytes_received()) / 1e6;

  const sim::Time crowd_end = config.crowd_start + config.crowd.duration;
  out.background_during_crowd_bps =
      background_tp.rate_bps_between(config.crowd_start, crowd_end);
  out.background_after_crowd_bps = background_tp.rate_bps_between(
      crowd_end + sim::Time::seconds(10.0), config.end);
  return out;
}

}  // namespace slowcc::scenario
