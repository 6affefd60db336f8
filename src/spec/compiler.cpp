#include "spec/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "exp/registry.hpp"
#include "exp/seed.hpp"
#include "fault/fault_script.hpp"
#include "fault/impairment.hpp"
#include "metrics/fairness.hpp"
#include "metrics/loss_rate_monitor.hpp"
#include "metrics/smoothness.hpp"
#include "metrics/throughput_monitor.hpp"
#include "metrics/utilization.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/error.hpp"
#include "traffic/flash_crowd.hpp"
#include "traffic/media_source.hpp"
#include "traffic/onoff_pattern.hpp"

namespace slowcc::spec {

namespace {

// Seed sub-stream indices, fanned out from the trial seed so every
// random consumer gets an independent reproducible stream.
constexpr std::uint64_t kSeedFaultInjector = 1;
constexpr std::uint64_t kSeedFlowStagger = 2;
constexpr std::uint64_t kSeedImpairmentBase = 0x100;
constexpr std::uint64_t kSeedCrowdBase = 0x200;

/// Resolves Num fields against the run's parameter values and
/// re-checks ranges post-resolution (a swept value must obey the same
/// constraints a literal would).
class Resolver {
 public:
  Resolver(const ScenarioSpec& spec, const SpecRunOptions& opt)
      : spec_(spec), scale_(opt.duration_scale) {
    for (const ParamDecl& p : spec.params) {
      values_.emplace_back(p.name, p.default_value);
    }
    for (const auto& [name, value] : opt.params) {
      bool found = false;
      for (auto& [have, slot] : values_) {
        if (have == name) {
          slot = value;
          found = true;
          break;
        }
      }
      if (!found) {
        spec_error(spec.source, 1,
                   "parameter override '" + name +
                       "' does not name a [params] entry");
      }
    }
  }

  /// Resolved value of `n`, or `fallback` when the field is absent.
  [[nodiscard]] double operator()(const Num& n, double fallback,
                                  NumRange range) const {
    if (!n.set) return fallback;
    double v = n.value;
    if (n.is_ref()) {
      const double* found = nullptr;
      for (const auto& [name, value] : values_) {
        if (name == n.ref) found = &value;
      }
      if (found == nullptr) {
        spec_error(spec_.source, n.line,
                   "key '" + std::string(n.key) + "': reference \"$" + n.ref +
                       "\" does not name a [params] entry");
      }
      v = *found;
    }
    check_num_range(spec_.source, n, v, range);
    return v;
  }

  /// A `_s` timeline field as simulated Time, scaled by duration_scale.
  [[nodiscard]] sim::Time time_s(const Num& n, double fallback_s,
                                 NumRange range = NumRange::kNonNegative) const {
    return sim::Time::seconds((*this)(n, fallback_s, range) * scale_);
  }

  /// A `_ms` magnitude field as simulated Time — never scaled.
  [[nodiscard]] sim::Time time_ms(const Num& n, double fallback_ms,
                                  NumRange range) const {
    return sim::Time::seconds((*this)(n, fallback_ms, range) / 1000.0);
  }

  /// An integer field; its range check keeps it within int.
  [[nodiscard]] int integer(const Num& n, int fallback,
                            NumRange range) const {
    return static_cast<int>(
        (*this)(n, static_cast<double>(fallback), range));
  }

 private:
  const ScenarioSpec& spec_;
  double scale_;
  std::vector<std::pair<std::string, double>> values_;
};

scenario::FlowSpec flow_spec_for(const ScenarioSpec& spec,
                                 const FlowGroup& group,
                                 const SpecRunOptions& opt,
                                 const Resolver& R) {
  std::string token = group.algorithm;
  if (token == "$algorithm") {
    token = opt.algorithm.empty() ? spec.scenario.default_algorithm
                                  : opt.algorithm;
  }
  scenario::FlowSpec fs;
  try {
    fs = exp::parse_flow_spec(token);
  } catch (const sim::SimError& e) {
    spec_error(spec.source, group.line,
               "algorithm '" + token + "': " + e.detail());
  }
  fs.disable_slow_start = !group.slow_start;
  fs.packet_size = static_cast<std::int64_t>(
      R(group.packet_size, 1000.0, NumRange::kPositiveInt));
  return fs;
}

traffic::PatternKind pattern_kind(const std::string& shape) noexcept {
  if (shape == "sawtooth") return traffic::PatternKind::kSawtooth;
  if (shape == "reverse_sawtooth") {
    return traffic::PatternKind::kReverseSawtooth;
  }
  return traffic::PatternKind::kSquare;
}

}  // namespace

SpecRunResult run_scenario(const ScenarioSpec& spec,
                           const SpecRunOptions& opt) {
  // A zero scale collapses every timeline onto t = 0, and some specs
  // never finish there.
  if (!std::isfinite(opt.duration_scale) || opt.duration_scale <= 0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "spec",
                        "duration_scale must be finite and > 0");
  }
  const Resolver R(spec, opt);
  const TopologySection& topo = spec.topology;

  sim::Simulator sim;

  scenario::DumbbellConfig net_cfg;
  net_cfg.bottleneck_bps =
      R(topo.bottleneck_mbps, 10.0, NumRange::kPositive) * 1e6;
  net_cfg.bottleneck_delay =
      R.time_ms(topo.bottleneck_delay_ms, 23.0, NumRange::kNonNegative);
  net_cfg.access_bps = R(topo.access_mbps, 100.0, NumRange::kPositive) * 1e6;
  net_cfg.access_delay =
      R.time_ms(topo.access_delay_ms, 1.0, NumRange::kNonNegative);
  net_cfg.red = (topo.queue == "red");
  net_cfg.mean_packet_size = static_cast<std::int64_t>(
      R(topo.mean_packet_size, 1000.0, NumRange::kPositiveInt));
  net_cfg.reverse_tcp_flows =
      R.integer(topo.reverse_tcp_flows, 2, NumRange::kNonNegativeInt);
  net_cfg.seed = opt.seed;

  // The sweep grid's generic axes override the spec's topology, the
  // same way exp::registry applies them to built-in experiments.
  if (opt.bandwidth_bps > 0) net_cfg.bottleneck_bps = opt.bandwidth_bps;
  if (opt.rtt_ms > 0) {
    const sim::Time two_access = net_cfg.access_delay * 2;
    const sim::Time one_way = sim::Time::seconds(opt.rtt_ms / 2000.0);
    if (one_way <= two_access) {
      spec_error(spec.source, topo.line == 0 ? 1 : topo.line,
                 "rtt_ms override too small for the access delays");
    }
    net_cfg.bottleneck_delay = one_way - two_access;
  }

  scenario::Dumbbell net(sim, net_cfg);

  const sim::Time t0 = R.time_s(spec.scenario.warmup_s, 5.0);
  const sim::Time t1 =
      t0 + R.time_s(spec.scenario.measure_s, 0.0, NumRange::kPositive);

  // ---- flows ------------------------------------------------------
  sim::Rng stagger(exp::derive_seed(opt.seed, kSeedFlowStagger));
  std::vector<net::FlowId> forward_ids;
  for (const FlowGroup& group : spec.flows) {
    const scenario::FlowSpec fs = flow_spec_for(spec, group, opt, R);
    const int count = R.integer(group.count, 1, NumRange::kNonNegativeInt);
    const sim::Time start = R.time_s(group.start_s, 0.0);
    const sim::Time spread = R.time_s(group.start_spread_s, 0.0);
    const sim::Time stop = R.time_s(group.stop_s, 0.0);
    for (int i = 0; i < count; ++i) {
      scenario::Dumbbell::Flow& f = net.add_flow(fs, group.forward);
      if (group.forward) forward_ids.push_back(f.id);
      cc::Agent* agent = f.agent;
      const sim::Time jitter =
          sim::Time::seconds(stagger.uniform() * spread.as_seconds());
      sim.schedule_at(start + jitter, [agent] { agent->start(); });
      if (stop > sim::Time()) {
        sim.schedule_at(stop, [agent] { agent->stop(); });
      }
    }
  }
  net.add_reverse_traffic();

  // ---- traffic ----------------------------------------------------
  std::vector<std::unique_ptr<traffic::OnOffPattern>> patterns;
  std::vector<std::unique_ptr<traffic::FlashCrowd>> crowds;
  std::vector<std::unique_ptr<traffic::MediaSource>> media;
  for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
    const TrafficSection& t = spec.traffic[i];
    const sim::Time start = R.time_s(t.start_s, 0.0);
    const sim::Time stop = R.time_s(t.stop_s, 0.0);
    const auto packet_size = static_cast<std::int64_t>(
        R(t.packet_size, 1000.0, NumRange::kPositiveInt));
    switch (t.kind) {
      case TrafficSection::Kind::kCbr: {
        const double rate =
            R(t.rate_mbps, 0.0, NumRange::kPositive) * 1e6;
        traffic::CbrSource& src = net.add_cbr(rate, packet_size);
        traffic::CbrSource* p = &src;
        sim.schedule_at(start, [p] { p->start(); });
        if (stop > sim::Time()) {
          sim.schedule_at(stop, [p] { p->stop(); });
        }
        break;
      }
      case TrafficSection::Kind::kOnOff: {
        const double peak =
            R(t.rate_mbps, 0.0, NumRange::kPositive) * 1e6;
        traffic::CbrSource& src = net.add_cbr(peak, packet_size);
        patterns.push_back(std::make_unique<traffic::OnOffPattern>(
            sim, src, pattern_kind(t.shape), peak,
            R.time_s(t.on_s, 1.0, NumRange::kPositive),
            R.time_s(t.off_s, 1.0, NumRange::kPositive),
            R.integer(t.ramp_steps, 16, NumRange::kPositiveInt)));
        traffic::OnOffPattern* p = patterns.back().get();
        p->start_at(start);
        if (stop > sim::Time()) {
          sim.schedule_at(stop, [p] { p->stop(); });
        }
        break;
      }
      case TrafficSection::Kind::kFlashCrowd: {
        net::Node& crowd_src = net.topology().add_node(
            "crowd-src-" + std::to_string(i));
        net::Node& crowd_dst = net.topology().add_node(
            "crowd-dst-" + std::to_string(i));
        net.topology().add_duplex(crowd_src, net.left_router(),
                                  net_cfg.access_bps, net_cfg.access_delay,
                                  1000);
        net.topology().add_duplex(crowd_dst, net.right_router(),
                                  net_cfg.access_bps, net_cfg.access_delay,
                                  1000);
        traffic::FlashCrowdConfig fc;
        fc.arrival_rate_fps =
            R(t.arrival_rate_fps, 200.0, NumRange::kPositive);
        fc.duration = R.time_s(t.duration_s, 5.0, NumRange::kPositive);
        fc.transfer_packets = static_cast<std::int64_t>(
            R(t.transfer_packets, 10.0, NumRange::kPositiveInt));
        fc.packet_size = packet_size;
        fc.seed = exp::derive_seed(opt.seed, kSeedCrowdBase + i);
        fc.first_flow_id =
            static_cast<net::FlowId>(100000 * (i + 1));
        crowds.push_back(std::make_unique<traffic::FlashCrowd>(
            sim, crowd_src, crowd_dst, fc));
        crowds.back()->start_at(start);
        break;
      }
      case TrafficSection::Kind::kMedia: {
        traffic::MediaSourceConfig mc;
        for (const Num& rung : t.rungs_mbps) {
          mc.rungs_bps.push_back(R(rung, 0.0, NumRange::kPositive) * 1e6);
        }
        mc.segment = R.time_s(t.segment_s, 2.0, NumRange::kPositive);
        mc.up_fraction = R(t.up_fraction, 0.95, NumRange::kUnitInterval);
        mc.down_fraction =
            R(t.down_fraction, 0.75, NumRange::kUnitInterval);
        const scenario::Dumbbell::CbrPair pair =
            net.add_cbr_pair(mc.rungs_bps.front(), packet_size);
        try {
          media.push_back(std::make_unique<traffic::MediaSource>(
              sim, *pair.source, *pair.sink, mc));
        } catch (const sim::SimError& e) {
          spec_error(spec.source, t.line, "media traffic: " + e.detail());
        }
        traffic::MediaSource* p = media.back().get();
        p->start_at(start);
        if (stop > sim::Time()) {
          sim.schedule_at(stop, [p] { p->stop(); });
        }
        break;
      }
    }
  }

  // ---- faults -----------------------------------------------------
  fault::FaultInjector injector(
      sim, exp::derive_seed(opt.seed, kSeedFaultInjector));
  std::vector<std::unique_ptr<fault::WireImpairment>> impairments;
  fault::FaultScript script;
  const auto cycles_to_cover = [&](sim::Time period) {
    return static_cast<int>(
        std::ceil(t1.as_seconds() / std::max(period.as_seconds(), 1e-9)));
  };
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSection& f = spec.faults[i];
    net::Link& link =
        f.reverse_link ? net.reverse_bottleneck() : net.bottleneck();
    const sim::Time at = R.time_s(f.at_s, 0.0);
    switch (f.kind) {
      case FaultSection::Kind::kBlackout:
        script.blackout(link, at,
                        R.time_s(f.duration_s, 1.0, NumRange::kPositive));
        break;
      case FaultSection::Kind::kFlap: {
        const sim::Time down =
            R.time_s(f.down_s, 1.0, NumRange::kPositive);
        const sim::Time up = R.time_s(f.up_s, 1.0, NumRange::kPositive);
        const int cycles =
            f.cycles.set
                ? R.integer(f.cycles, 1, NumRange::kPositiveInt)
                : cycles_to_cover(down + up);
        script.flap(link, at, down, up, cycles);
        break;
      }
      case FaultSection::Kind::kBandwidthOscillation: {
        const sim::Time period =
            R.time_s(f.period_s, 1.0, NumRange::kPositive);
        const int cycles =
            f.cycles.set
                ? R.integer(f.cycles, 1, NumRange::kPositiveInt)
                : cycles_to_cover(period);
        script.bandwidth_oscillation(
            link, at, period,
            R(f.high_mbps, 0.0, NumRange::kPositive) * 1e6,
            R(f.low_mbps, 0.0, NumRange::kPositive) * 1e6, cycles);
        break;
      }
      case FaultSection::Kind::kDelayJitter:
        script.delay_jitter(
            link, at, R.time_s(f.end_s, 0.0, NumRange::kPositive),
            R.time_s(f.interval_s, 0.1, NumRange::kPositive),
            R.time_ms(f.amplitude_ms, 0.0, NumRange::kNonNegative));
        break;
      case FaultSection::Kind::kDelayStep:
        script.delay_at(link, at,
                        R.time_ms(f.delay_ms, 0.0, NumRange::kNonNegative));
        break;
      case FaultSection::Kind::kRetryStall: {
        // A periodic link-layer retransmission storm: propagation
        // delay jumps by extra_delay_ms for stall_s, then recovers.
        const sim::Time period =
            R.time_s(f.period_s, 1.0, NumRange::kPositive);
        const sim::Time stall =
            R.time_s(f.stall_s, 0.1, NumRange::kPositive);
        const sim::Time extra =
            R.time_ms(f.extra_delay_ms, 0.0, NumRange::kNonNegative);
        const int cycles =
            f.cycles.set
                ? R.integer(f.cycles, 1, NumRange::kPositiveInt)
                : cycles_to_cover(period);
        const sim::Time base = net_cfg.bottleneck_delay;
        for (int c = 0; c < cycles; ++c) {
          const sim::Time stall_at = at + period * c;
          script.delay_at(link, stall_at, base + extra);
          script.delay_at(link, stall_at + stall, base);
        }
        break;
      }
      case FaultSection::Kind::kImpairment: {
        fault::ImpairmentConfig ic;
        fault::GilbertElliottConfig ge;
        ge.p_good_to_bad =
            R(f.p_good_to_bad, 0.001, NumRange::kUnitInterval);
        ge.p_bad_to_good =
            R(f.p_bad_to_good, 0.10, NumRange::kUnitInterval);
        ge.loss_good = R(f.loss_good, 0.0, NumRange::kUnitInterval);
        ge.loss_bad = R(f.loss_bad, 0.5, NumRange::kUnitInterval);
        ic.loss = ge;
        ic.reorder_probability =
            R(f.reorder_probability, 0.0, NumRange::kUnitInterval);
        ic.duplicate_probability =
            R(f.duplicate_probability, 0.0, NumRange::kUnitInterval);
        try {
          impairments.push_back(std::make_unique<fault::WireImpairment>(
              ic, sim::Rng(exp::derive_seed(opt.seed,
                                            kSeedImpairmentBase + i))));
        } catch (const sim::SimError& e) {
          spec_error(spec.source, f.line, "impairment: " + e.detail());
        }
        script.wire_model_at(link, at, impairments.back().get());
        break;
      }
    }
  }

  // ---- metrics ----------------------------------------------------
  const sim::Time bin = std::max(
      sim::Time::seconds(0.1 * opt.duration_scale), sim::Time::micros(100));
  const auto is_data = [](const net::Packet& p) {
    return p.type == net::PacketType::kData ||
           p.type == net::PacketType::kTfrcData ||
           p.type == net::PacketType::kTearData;
  };
  metrics::ThroughputMonitor data_tp(sim, net.bottleneck(), bin, is_data);
  std::vector<std::unique_ptr<metrics::ThroughputMonitor>> per_flow;
  if (spec.metrics.fairness) {
    for (const net::FlowId id : forward_ids) {
      per_flow.push_back(std::make_unique<metrics::ThroughputMonitor>(
          sim, net.bottleneck(), bin,
          [id](const net::Packet& p) { return p.flow == id; }));
    }
  }
  std::unique_ptr<metrics::LossRateMonitor> losses;
  if (spec.metrics.loss) {
    losses = std::make_unique<metrics::LossRateMonitor>(
        sim, net.bottleneck(), bin);
  }

  net.finalize();
  injector.arm(script);
  sim.run_until(t1);
  net.audit();

  exp::Row row;
  if (spec.metrics.throughput) {
    const double goodput = data_tp.rate_bps_between(t0, t1);
    row.set("aggregate_goodput_bps", goodput);
    row.set("aggregate_fraction", goodput / net_cfg.bottleneck_bps);
  }
  if (spec.metrics.utilization) {
    row.set("utilization", metrics::utilization_between(
                               data_tp, t0, t1, net_cfg.bottleneck_bps));
  }
  if (spec.metrics.loss) {
    row.set("drop_rate", losses->loss_rate_between(t0, t1));
  }
  if (spec.metrics.fairness) {
    std::vector<double> shares;
    shares.reserve(per_flow.size());
    for (const auto& m : per_flow) {
      shares.push_back(m->rate_bps_between(t0, t1));
    }
    row.set("jain_index", metrics::jain_index(shares));
  }
  if (spec.metrics.smoothness) {
    const std::vector<double> series = data_tp.rate_series_bps(t0, t1);
    row.set("smoothness", metrics::smoothness_metric(series));
    row.set("cov", metrics::coefficient_of_variation(series));
  }
  if (!crowds.empty()) {
    double started = 0.0;
    double completed = 0.0;
    for (const auto& c : crowds) {
      started += static_cast<double>(c->flows_started());
      completed += static_cast<double>(c->flows_completed());
    }
    row.set("crowd_flows_started", started);
    row.set("crowd_completed_fraction",
            started > 0 ? completed / started : 0.0);
  }
  if (!media.empty()) {
    double rung_sum = 0.0;
    double switches = 0.0;
    for (const auto& m : media) {
      rung_sum += m->mean_rung();
      switches += static_cast<double>(m->switches());
    }
    row.set("media_mean_rung", rung_sum / static_cast<double>(media.size()));
    row.set("media_rung_switches", switches);
  }

  SpecRunResult out;
  out.row = std::move(row);
  out.trace_digest = sim.trace_digest();
  out.events = sim.events_executed();
  return out;
}

}  // namespace slowcc::spec
