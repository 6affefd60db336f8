#include "scenario/stabilization_experiment.hpp"

#include <algorithm>

namespace slowcc::scenario {

StabilizationOutcome run_stabilization(const StabilizationConfig& config) {
  sim::Simulator sim;
  DumbbellConfig net_cfg = config.net;
  net_cfg.seed = config.seed;
  Dumbbell net(sim, net_cfg);

  for (int i = 0; i < config.num_flows; ++i) {
    net.add_flow(config.spec);
  }
  net.add_reverse_traffic();

  // ON/OFF CBR at half the bottleneck rate.
  traffic::CbrSource& cbr = net.add_cbr(config.net.bottleneck_bps / 2.0);

  const sim::Time rtt = config.net.base_rtt();
  metrics::LossRateMonitor losses(sim, net.bottleneck(), rtt);

  net.start_flows();
  net.finalize();

  sim.schedule_at(sim::Time(), [&cbr] { cbr.start(); });
  sim.schedule_at(config.cbr_stop, [&cbr] { cbr.set_rate_bps(0.0); });
  const double restart_rate = config.net.bottleneck_bps / 2.0;
  sim.schedule_at(config.cbr_restart, [&cbr, restart_rate] {
    cbr.set_rate_bps(restart_rate);
  });

  sim.run_until(config.end);
  net.audit();

  StabilizationOutcome out;
  // Calibrate steady state over the second half of the initial CBR-on
  // period (start-up transients excluded).
  const sim::Time steady_from =
      sim::Time::seconds(config.cbr_stop.as_seconds() / 2.0);
  out.stabilization = metrics::compute_stabilization(
      losses, steady_from, config.cbr_stop, config.cbr_restart, config.end);
  out.steady_loss_rate = out.stabilization.steady_loss_rate;

  const std::size_t restart_bin = losses.bin_index(config.cbr_restart);
  for (std::size_t i = 0; i < losses.bin_count(); ++i) {
    out.loss_rate_series.push_back(losses.trailing_loss_rate(i, 10));
    out.series_times_s.push_back(static_cast<double>(i + 1) *
                                 rtt.as_seconds());
    if (i >= restart_bin) {
      out.peak_loss_rate_after_restart = std::max(
          out.peak_loss_rate_after_restart, losses.loss_rate_in_bin(i));
    }
  }
  return out;
}

}  // namespace slowcc::scenario
