#include "scenario/oscillation_experiment.hpp"

#include <cmath>

#include "fault/fault_script.hpp"
#include "metrics/loss_rate_monitor.hpp"
#include "metrics/throughput_monitor.hpp"

namespace slowcc::scenario {

OscillationOutcome run_oscillation(const OscillationConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  std::vector<net::FlowId> ids;
  for (int i = 0; i < config.num_flows; ++i) {
    ids.push_back(net.add_flow(config.spec).id);
  }
  net.add_reverse_traffic();

  const double cbr_peak = config.net.bottleneck_bps * config.cbr_peak_fraction;
  traffic::CbrSource* cbr = nullptr;
  std::unique_ptr<traffic::OnOffPattern> pattern;
  fault::FaultInjector injector(sim, sim::derive_seed(config.seed, 1));
  if (config.mode == OscillationMode::kCbrEmulation) {
    cbr = &net.add_cbr(cbr_peak);
    pattern = std::make_unique<traffic::OnOffPattern>(
        sim, *cbr, traffic::PatternKind::kSquare, cbr_peak,
        config.on_off_length, config.on_off_length);
  } else {
    // Step the actual bottleneck: full capacity for one half-period,
    // the CBR-emulation "ON" residual capacity for the other.
    const double low_bps = config.net.bottleneck_bps - cbr_peak;
    const sim::Time period = config.on_off_length + config.on_off_length;
    const sim::Time total = config.warmup + config.measure;
    const int cycles = static_cast<int>(
        std::ceil(total.as_seconds() / period.as_seconds()));
    fault::FaultScript script;
    script.bandwidth_oscillation(net.bottleneck(), sim::Time(), period,
                                 config.net.bottleneck_bps, low_bps, cycles);
    injector.arm(script);
  }

  metrics::ThroughputMonitor data_tp(
      sim, net.bottleneck(), sim::Time::millis(100),
      [](const net::Packet& p) {
        return p.type == net::PacketType::kData ||
               p.type == net::PacketType::kTfrcData ||
               p.type == net::PacketType::kTearData;
      });
  std::vector<std::unique_ptr<metrics::ThroughputMonitor>> per_flow;
  for (auto id : ids) {
    per_flow.push_back(std::make_unique<metrics::ThroughputMonitor>(
        sim, net.bottleneck(), sim::Time::millis(100),
        [id](const net::Packet& p) { return p.flow == id; }));
  }
  metrics::LossRateMonitor losses(sim, net.bottleneck(),
                                  config.net.base_rtt());

  net.start_flows();
  net.finalize();
  if (pattern) pattern->start_at(sim::Time());

  const sim::Time t0 = config.warmup;
  const sim::Time t1 = config.warmup + config.measure;
  sim.run_until(t1);
  net.audit();

  OscillationOutcome out;
  out.mean_available_bps = config.net.bottleneck_bps - cbr_peak / 2.0;
  out.aggregate_fraction =
      data_tp.rate_bps_between(t0, t1) / out.mean_available_bps;
  const double fair_share =
      out.mean_available_bps / static_cast<double>(config.num_flows);
  for (auto& m : per_flow) {
    out.per_flow_fraction.push_back(m->rate_bps_between(t0, t1) / fair_share);
  }
  out.drop_rate = losses.loss_rate_between(t0, t1);
  return out;
}

}  // namespace slowcc::scenario
