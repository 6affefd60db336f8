#include "scenario/responsiveness_experiment.hpp"

#include <algorithm>

#include "metrics/throughput_monitor.hpp"
#include "traffic/loss_script.hpp"

namespace slowcc::scenario {

ResponsivenessOutcome run_responsiveness(const ResponsivenessConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  Dumbbell::Flow& flow = net.add_flow(config.spec);

  const sim::Time rtt = config.net.base_rtt();
  metrics::ThroughputMonitor tp(
      sim, net.bottleneck(), rtt, [](const net::Packet& p) {
        return traffic::LossScript::is_data(p);
      });

  net.finalize();
  sim.schedule_at(sim::Time(), [agent = flow.agent] { agent->start(); });

  // Warm up to the steady operating point, then impose persistent
  // congestion: one forced loss per RTT, per the paper's definition.
  auto script = std::make_shared<traffic::IntervalLossScript>(
      sim, rtt, config.warmup);
  sim.schedule_at(config.warmup, [&net, script] {
    net.bottleneck().set_forced_drop_filter(
        [script](const net::Packet& p) {
          if (!traffic::LossScript::is_data(p)) return false;
          return script->should_drop(p);
        });
  });

  sim.run_until(config.horizon);
  net.audit();

  ResponsivenessOutcome out;

  const std::size_t onset_bin = static_cast<std::size_t>(
      config.warmup.as_nanos() / rtt.as_nanos());

  // Pre-loss operating point: mean over the 20 RTTs before onset.
  double pre = 0.0;
  for (std::size_t i = onset_bin - 20; i < onset_bin; ++i) {
    pre += static_cast<double>(tp.bytes_in_bin(i));
  }
  pre /= 20.0;
  out.pre_loss_rate_bps = pre * 8.0 / rtt.as_seconds();

  // Responsiveness: first post-onset bin where a 2-bin average drops to
  // half the pre-loss rate (2-bin smoothing rides out self-clocking
  // burst structure without hiding the halving).
  for (std::size_t i = onset_bin + 1; i < tp.bin_count(); ++i) {
    const double two_bin =
        0.5 * static_cast<double>(tp.bytes_in_bin(i) +
                                  tp.bytes_in_bin(i - 1));
    if (two_bin <= 0.5 * pre) {
      out.halved = true;
      out.responsiveness_rtts = static_cast<double>(i - onset_bin);
      break;
    }
  }

  // Aggressiveness needs an *unsaturated* ramp: at a full link the
  // departure rate is pinned at capacity and says nothing about the
  // window growth. Run a second, clean simulation with slow start
  // disabled (window-based kinds) and fit the slope of the per-RTT
  // delivered rate while it climbs between 20% and 70% of capacity.
  out.aggressiveness_pkts_per_rtt = measure_aggressiveness(config);

  return out;
}

double measure_aggressiveness(const ResponsivenessConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = sim::derive_seed(config.seed, 2);  // clean second run
  Dumbbell net(sim, net_cfg);

  FlowSpec spec = config.spec;
  spec.disable_slow_start = true;  // honored by the window-based kinds

  Dumbbell::Flow& flow = net.add_flow(spec);
  const sim::Time rtt = config.net.base_rtt();
  metrics::ThroughputMonitor tp(
      sim, net.bottleneck(), rtt, [](const net::Packet& p) {
        return traffic::LossScript::is_data(p);
      });
  net.finalize();
  sim.schedule_at(sim::Time(), [agent = flow.agent] { agent->start(); });
  sim.run_until(sim::Time::seconds(120.0));
  net.audit();

  const double capacity_bytes_per_bin =
      config.net.bottleneck_bps / 8.0 * rtt.as_seconds();
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < tp.bin_count(); ++i) {
    const double b = static_cast<double>(tp.bytes_in_bin(i));
    if (lo == 0 && b >= 0.2 * capacity_bytes_per_bin) lo = i;
    if (lo != 0 && b >= 0.7 * capacity_bytes_per_bin) {
      hi = i;
      break;
    }
  }
  if (hi <= lo + 3) return 0.0;  // ramp too fast to resolve (or absent)
  const double rise = static_cast<double>(tp.bytes_in_bin(hi)) -
                      static_cast<double>(tp.bytes_in_bin(lo));
  return rise / static_cast<double>(hi - lo) /
         static_cast<double>(config.spec.packet_size);
}

}  // namespace slowcc::scenario
