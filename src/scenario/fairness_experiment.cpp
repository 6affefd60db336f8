#include "scenario/fairness_experiment.hpp"

#include <algorithm>

#include "metrics/fairness.hpp"
#include "metrics/throughput_monitor.hpp"

namespace slowcc::scenario {

FairnessOutcome run_fairness(const FairnessConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  std::vector<net::FlowId> group_a_ids;
  std::vector<net::FlowId> group_b_ids;
  for (int i = 0; i < config.flows_per_group; ++i) {
    group_a_ids.push_back(net.add_flow(config.group_a).id);
  }
  for (int i = 0; i < config.flows_per_group; ++i) {
    group_b_ids.push_back(net.add_flow(config.group_b).id);
  }
  net.add_reverse_traffic();

  const double cbr_peak = config.net.bottleneck_bps * config.cbr_peak_fraction;
  traffic::CbrSource& cbr = net.add_cbr(cbr_peak);
  const sim::Time half = sim::Time::seconds(config.cbr_period.as_seconds() / 2.0);
  traffic::OnOffPattern pattern(sim, cbr, config.pattern, cbr_peak, half,
                                half);

  // Per-flow throughput measured at the bottleneck over the
  // measurement window only (warmup excluded).
  const sim::Time t0 = config.warmup;
  const sim::Time t1 = config.warmup + config.measure;
  metrics::ThroughputMonitor tp(
      sim, net.bottleneck(), sim::Time::millis(100),
      [](const net::Packet& p) {
        // Forward-direction data only: CBR filler and the reverse
        // flows' ACKs crossing this link don't count as utilization.
        return p.type == net::PacketType::kData ||
               p.type == net::PacketType::kTfrcData ||
               p.type == net::PacketType::kTearData;
      });

  struct PerFlow {
    net::FlowId id;
    std::unique_ptr<metrics::ThroughputMonitor> monitor;
  };
  std::vector<PerFlow> per_flow;
  for (auto& f : net.flows()) {
    if (!f.forward) continue;
    auto m = std::make_unique<metrics::ThroughputMonitor>(
        sim, net.bottleneck(), sim::Time::millis(100),
        [id = f.id](const net::Packet& p) { return p.flow == id; });
    per_flow.push_back({f.id, std::move(m)});
  }

  net.start_flows();
  net.finalize();
  pattern.start_at(sim::Time());

  sim.run_until(t1);
  net.audit();

  // Average available bandwidth: the CBR is ON half the time at
  // cbr_peak, so the flows' average share of the link is
  // bottleneck - cbr_peak/2.
  const double mean_available = config.net.bottleneck_bps - cbr_peak / 2.0;
  const double fair_share =
      mean_available / (2.0 * static_cast<double>(config.flows_per_group));

  FairnessOutcome out;
  out.mean_available_bps = mean_available;
  auto normalized = [&](net::FlowId id) {
    for (auto& pf : per_flow) {
      if (pf.id == id) {
        return pf.monitor->rate_bps_between(t0, t1) / fair_share;
      }
    }
    return 0.0;
  };
  for (auto id : group_a_ids) out.group_a_normalized.push_back(normalized(id));
  for (auto id : group_b_ids) out.group_b_normalized.push_back(normalized(id));
  out.group_a_mean = metrics::mean(out.group_a_normalized);
  out.group_b_mean = metrics::mean(out.group_b_normalized);
  out.utilization = tp.rate_bps_between(t0, t1) / mean_available;
  return out;
}

}  // namespace slowcc::scenario
