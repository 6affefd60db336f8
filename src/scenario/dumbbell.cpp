#include "scenario/dumbbell.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "fault/invariant_auditor.hpp"
#include "sim/error.hpp"

namespace slowcc::scenario {

const char* to_string(CcKind kind) noexcept {
  switch (kind) {
    case CcKind::kTcp:
      return "TCP";
    case CcKind::kSqrt:
      return "SQRT";
    case CcKind::kIiad:
      return "IIAD";
    case CcKind::kRap:
      return "RAP";
    case CcKind::kTfrc:
      return "TFRC";
    case CcKind::kTear:
      return "TEAR";
  }
  return "?";
}

FlowSpec FlowSpec::tcp(double gamma) {
  FlowSpec s;
  s.kind = CcKind::kTcp;
  s.gamma = gamma;
  return s;
}
FlowSpec FlowSpec::sqrt(double gamma) {
  FlowSpec s;
  s.kind = CcKind::kSqrt;
  s.gamma = gamma;
  return s;
}
FlowSpec FlowSpec::iiad() {
  FlowSpec s;
  s.kind = CcKind::kIiad;
  return s;
}
FlowSpec FlowSpec::rap(double gamma) {
  FlowSpec s;
  s.kind = CcKind::kRap;
  s.gamma = gamma;
  return s;
}
FlowSpec FlowSpec::tear() {
  FlowSpec s;
  s.kind = CcKind::kTear;
  return s;
}
FlowSpec FlowSpec::tfrc(int k, bool conservative) {
  FlowSpec s;
  s.kind = CcKind::kTfrc;
  s.gamma = static_cast<double>(k);
  s.tfrc_conservative = conservative;
  return s;
}

std::string FlowSpec::label() const {
  char buf[64];
  switch (kind) {
    case CcKind::kTfrc:
      std::snprintf(buf, sizeof(buf), "TFRC(%d)%s", static_cast<int>(gamma),
                    tfrc_conservative ? "+SC" : "");
      break;
    case CcKind::kIiad:
      std::snprintf(buf, sizeof(buf), "IIAD");
      break;
    case CcKind::kTear:
      std::snprintf(buf, sizeof(buf), "TEAR");
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%s(1/%g)", to_string(kind), gamma);
      break;
  }
  return buf;
}

std::pair<std::unique_ptr<cc::Agent>, std::unique_ptr<cc::SinkBase>>
make_flow_endpoints(sim::Simulator& sim, net::Node& src, net::Node& dst,
                    net::FlowId id, const FlowSpec& spec) {
  std::unique_ptr<cc::Agent> agent;
  std::unique_ptr<cc::SinkBase> sink;

  cc::TcpConfig tcp_cfg;
  if (spec.disable_slow_start) {
    tcp_cfg.initial_ssthresh = tcp_cfg.initial_cwnd;
  }

  switch (spec.kind) {
    case CcKind::kTcp: {
      auto s = std::make_unique<cc::TcpSink>(sim, dst);
      agent = std::make_unique<cc::TcpAgent>(
          sim, src, dst.id(), s->local_port(), id,
          std::make_unique<cc::AimdPolicy>(
              cc::AimdPolicy::tcp_compatible(1.0 / spec.gamma)),
          tcp_cfg);
      sink = std::move(s);
      break;
    }
    case CcKind::kSqrt: {
      auto s = std::make_unique<cc::TcpSink>(sim, dst);
      agent = std::make_unique<cc::TcpAgent>(
          sim, src, dst.id(), s->local_port(), id,
          std::make_unique<cc::BinomialPolicy>(
              cc::BinomialPolicy::sqrt_policy(1.0 / spec.gamma)),
          tcp_cfg);
      sink = std::move(s);
      break;
    }
    case CcKind::kIiad: {
      auto s = std::make_unique<cc::TcpSink>(sim, dst);
      agent = std::make_unique<cc::TcpAgent>(
          sim, src, dst.id(), s->local_port(), id,
          std::make_unique<cc::BinomialPolicy>(
              cc::BinomialPolicy::iiad_policy()),
          tcp_cfg);
      sink = std::move(s);
      break;
    }
    case CcKind::kRap: {
      auto s = std::make_unique<cc::RapSink>(sim, dst);
      agent = std::make_unique<cc::RapAgent>(sim, src, dst.id(),
                                             s->local_port(), id,
                                             1.0 / spec.gamma);
      sink = std::move(s);
      break;
    }
    case CcKind::kTfrc: {
      auto s = std::make_unique<cc::TfrcSink>(
          sim, dst, std::max(1, static_cast<int>(spec.gamma)));
      s->history().set_history_discounting(spec.tfrc_history_discounting);
      cc::TfrcConfig cfg;
      cfg.conservative = spec.tfrc_conservative;
      cfg.conservative_c = spec.tfrc_conservative_c;
      agent = std::make_unique<cc::TfrcAgent>(sim, src, dst.id(),
                                              s->local_port(), id, cfg);
      sink = std::move(s);
      break;
    }
    case CcKind::kTear: {
      auto s = std::make_unique<cc::TearSink>(sim, dst);
      agent = std::make_unique<cc::TearAgent>(sim, src, dst.id(),
                                              s->local_port(), id);
      sink = std::move(s);
      break;
    }
  }
  agent->set_packet_size(spec.packet_size);
  return {std::move(agent), std::move(sink)};
}

Dumbbell::Dumbbell(sim::Simulator& sim, const DumbbellConfig& config)
    : sim_(sim), config_(config), topo_(sim), rng_(config.seed) {
  left_router_ = &topo_.add_node("routerL");
  right_router_ = &topo_.add_node("routerR");

  forward_bn_ = &topo_.add_link(*left_router_, *right_router_,
                                config_.bottleneck_bps,
                                config_.bottleneck_delay,
                                make_bottleneck_queue());
  reverse_bn_ = &topo_.add_link(*right_router_, *left_router_,
                                config_.bottleneck_bps,
                                config_.bottleneck_delay,
                                make_bottleneck_queue());
}

std::unique_ptr<net::Queue> Dumbbell::make_bottleneck_queue() {
  const double bdp = config_.bdp_packets();
  if (config_.red) {
    net::RedConfig red = net::RedConfig::for_bdp(bdp);
    red.mean_packet_size = static_cast<double>(config_.mean_packet_size);
    red.seed = rng_.next_u64();
    return std::make_unique<net::RedQueue>(sim_, red);
  }
  return std::make_unique<net::DropTailQueue>(
      static_cast<std::size_t>(std::max(2.5 * bdp, 4.0)));
}

net::Node& Dumbbell::new_edge_host(bool left) {
  net::Node& router = left ? *left_router_ : *right_router_;
  net::Node& host = topo_.add_node();
  // Generous access links: the bottleneck must be the dumbbell's waist.
  topo_.add_duplex(host, router, config_.access_bps, config_.access_delay,
                   /*queue_limit=*/1000);
  return host;
}

Dumbbell::Flow& Dumbbell::add_flow(const FlowSpec& spec, bool forward) {
  if (finalized_) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Dumbbell",
                        "add_flow after finalize()");
  }
  net::Node& src = new_edge_host(forward);
  net::Node& dst = new_edge_host(!forward);

  const net::FlowId id = next_flow_id_++;
  auto [agent, sink] = make_flow_endpoints(sim_, src, dst, id, spec);

  Flow f;
  f.agent = agent.get();
  f.sink = sink.get();
  f.id = id;
  f.spec = spec;
  f.forward = forward;
  agents_.push_back(std::move(agent));
  sinks_.push_back(std::move(sink));
  flows_.push_back(f);
  return flows_.back();
}

traffic::CbrSource& Dumbbell::add_cbr(double rate_bps,
                                      std::int64_t packet_size) {
  return *add_cbr_pair(rate_bps, packet_size).source;
}

Dumbbell::CbrPair Dumbbell::add_cbr_pair(double rate_bps,
                                         std::int64_t packet_size) {
  if (finalized_) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Dumbbell",
                        "add_cbr after finalize()");
  }
  net::Node& src = new_edge_host(true);
  net::Node& dst = new_edge_host(false);

  auto sink = std::make_unique<traffic::CbrSink>(sim_, dst);
  auto source = std::make_unique<traffic::CbrSource>(
      sim_, src, dst.id(), sink->local_port(), next_flow_id_++, rate_bps);
  source->set_packet_size(packet_size);

  CbrPair pair{source.get(), sink.get()};
  agents_.push_back(std::move(source));
  sinks_.push_back(std::move(sink));
  return pair;
}

void Dumbbell::add_reverse_traffic() {
  for (int i = 0; i < config_.reverse_tcp_flows; ++i) {
    Flow& f = add_flow(FlowSpec::tcp(), /*forward=*/false);
    // Start as a t=0 event so routes are in place (finalize() runs
    // before the simulator does).
    cc::Agent* agent = f.agent;
    sim_.schedule_at(sim_.now(), [agent] { agent->start(); });
  }
}

void Dumbbell::start_flows(sim::Time base, sim::Time spread) {
  for (Flow& f : flows_) {
    if (!f.forward) continue;  // reverse traffic starts in add_reverse_traffic
    const sim::Time at =
        base + sim::Time::seconds(rng_.uniform() * spread.as_seconds());
    cc::Agent* agent = f.agent;
    sim_.schedule_at(at, [agent] { agent->start(); });
  }
}

void Dumbbell::finalize() {
  if (finalized_) return;
  topo_.compute_routes();
  finalized_ = true;
}

namespace {

// Window and timer sanity of one TCP sender: cwnd never drops below
// one segment, the RTO stays within its configured bounds, and the
// cumulative ACK never passes the next sequence to send.
void check_tcp_agent(const cc::TcpAgent& tcp, const std::string& name) {
  std::string broken;
  if (!(tcp.cwnd() >= 1.0)) {
    broken = std::string("cwnd ") + std::to_string(tcp.cwnd()) + " < 1";
  } else if (tcp.current_rto() < tcp.config().min_rto ||
             tcp.current_rto() > tcp.config().max_rto) {
    broken = std::string("rto ") + tcp.current_rto().to_string() +
             " outside [" + tcp.config().min_rto.to_string() + ", " +
             tcp.config().max_rto.to_string() + "]";
  } else if (tcp.snd_una() > tcp.next_seq()) {
    broken = std::string("snd_una ") + std::to_string(tcp.snd_una()) +
             " > next_seq " + std::to_string(tcp.next_seq());
  }
  if (!broken.empty()) {
    throw sim::SimError(sim::SimErrc::kInvariantViolation, "Dumbbell",
                        name + ": " + broken);
  }
}

}  // namespace

void Dumbbell::audit() {
  fault::InvariantAuditor auditor(sim_);
  auditor.watch_topology(topo_);
  for (const Flow& f : flows_) {
    const std::string name = "flow#" + std::to_string(f.id);
    if (const auto* tcp = dynamic_cast<const cc::TcpAgent*>(f.agent)) {
      check_tcp_agent(*tcp, name);
      auditor.watch_timer(tcp->rto_timer(), name + " rto");
    } else if (const auto* rap = dynamic_cast<const cc::RapAgent*>(f.agent)) {
      auditor.watch_timer(rap->send_timer(), name + " rap send");
      auditor.watch_timer(rap->increase_timer(), name + " rap increase");
      auditor.watch_timer(rap->timeout_timer(), name + " rap timeout");
    } else if (const auto* tfrc =
                   dynamic_cast<const cc::TfrcAgent*>(f.agent)) {
      auditor.watch_timer(tfrc->send_timer(), name + " tfrc send");
      auditor.watch_timer(tfrc->no_feedback_timer(),
                          name + " tfrc no-feedback");
    }
    if (const auto* sink = dynamic_cast<const cc::TfrcSink*>(f.sink)) {
      auditor.watch_timer(sink->feedback_timer(), name + " tfrc feedback");
    }
  }
  auditor.check_now();
}

double Dumbbell::flow_goodput_bps(const Flow& f, sim::Time duration) const {
  if (duration <= sim::Time()) return 0.0;
  return static_cast<double>(f.sink->bytes_received()) * 8.0 /
         duration.as_seconds();
}

}  // namespace slowcc::scenario
