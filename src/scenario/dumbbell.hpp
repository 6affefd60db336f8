#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cc/agent.hpp"
#include "cc/rap_agent.hpp"
#include "cc/tcp_agent.hpp"
#include "cc/tcp_sink.hpp"
#include "cc/tear_agent.hpp"
#include "cc/tfrc_agent.hpp"
#include "cc/tfrc_sink.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "traffic/cbr_source.hpp"

namespace slowcc::scenario {

/// Which congestion control algorithm a flow runs.
enum class CcKind { kTcp, kSqrt, kIiad, kRap, kTfrc, kTear };

[[nodiscard]] const char* to_string(CcKind kind) noexcept;

/// Specification of one congestion-controlled flow. The paper's
/// parameterization: γ means TCP(1/γ), RAP(1/γ), SQRT(1/γ), TFRC(γ).
struct FlowSpec {
  CcKind kind = CcKind::kTcp;
  double gamma = 2.0;
  bool tfrc_conservative = false;       // the paper's conservative_ option
  double tfrc_conservative_c = 1.1;     // the C constant (paper's value)
  bool tfrc_history_discounting = true; // ns-2 default (fig 13 turns it off)
  /// Start window-based flows directly in congestion avoidance (the
  /// transient-fairness experiments do this: the paper's §4.2.2 model
  /// is pure AIMD, and slow start would mask the AIMD convergence).
  bool disable_slow_start = false;
  std::int64_t packet_size = 1000;

  [[nodiscard]] static FlowSpec tcp(double gamma = 2.0);
  [[nodiscard]] static FlowSpec sqrt(double gamma = 2.0);
  [[nodiscard]] static FlowSpec iiad();
  [[nodiscard]] static FlowSpec rap(double gamma = 2.0);
  [[nodiscard]] static FlowSpec tfrc(int k = 6, bool conservative = false);
  [[nodiscard]] static FlowSpec tear();

  [[nodiscard]] std::string label() const;
};

/// Parameters of the paper's §3 topology: a single-bottleneck dumbbell
/// with RED queue management, RTT ≈ 50 ms, queue 2.5 BDP, RED
/// thresholds 0.25 / 1.25 BDP, and data traffic in both directions.
struct DumbbellConfig {
  double bottleneck_bps = 10e6;
  sim::Time bottleneck_delay = sim::Time::millis(23);
  double access_bps = 100e6;
  sim::Time access_delay = sim::Time::millis(1);
  bool red = true;                      // RED (paper default) vs DropTail
  std::int64_t mean_packet_size = 1000;
  std::uint64_t seed = 1;
  int reverse_tcp_flows = 2;            // §3: data flows in both directions

  /// Base RTT (propagation only) of the symmetric path.
  [[nodiscard]] sim::Time base_rtt() const noexcept {
    return (access_delay + bottleneck_delay + access_delay) * 2;
  }
  /// Bandwidth-delay product in packets of mean size.
  [[nodiscard]] double bdp_packets() const noexcept {
    return bottleneck_bps * base_rtt().as_seconds() /
           (8.0 * static_cast<double>(mean_packet_size));
  }
};

/// A built dumbbell network plus the flows running over it. Owns every
/// node, link, agent, and sink.
class Dumbbell {
 public:
  /// One congestion-controlled (or CBR) flow and its endpoints.
  struct Flow {
    cc::Agent* agent = nullptr;      // owned by the Dumbbell
    cc::SinkBase* sink = nullptr;    // owned by the Dumbbell
    net::FlowId id = 0;
    FlowSpec spec;
    bool forward = true;
  };

  Dumbbell(sim::Simulator& sim, const DumbbellConfig& config);

  /// Create a flow per `spec`. Forward flows send left -> right across
  /// the bottleneck; reverse flows right -> left. Each flow gets its
  /// own source and destination host hanging off the routers.
  Flow& add_flow(const FlowSpec& spec, bool forward = true);

  /// Create a CBR source crossing the bottleneck (forward direction).
  /// Returns the source; it is stopped until `start()`ed or driven by
  /// an OnOffPattern.
  traffic::CbrSource& add_cbr(double rate_bps,
                              std::int64_t packet_size = 1000);

  /// A CBR source plus its receiving sink. Receiver-side byte counts
  /// drive closed-loop sources (adaptive media) and goodput metrics.
  struct CbrPair {
    traffic::CbrSource* source = nullptr;  // owned by the Dumbbell
    cc::SinkBase* sink = nullptr;          // owned by the Dumbbell
  };

  /// Like `add_cbr`, but also expose the sink end.
  CbrPair add_cbr_pair(double rate_bps, std::int64_t packet_size = 1000);

  /// Add `config.reverse_tcp_flows` standard TCP flows in the reverse
  /// direction and start them at t=0 (paper §3's bidirectional data
  /// traffic). Called by scenarios that follow the paper's setup.
  void add_reverse_traffic();

  /// Start every congestion-controlled flow, staggered uniformly over
  /// [base, base + spread) to avoid phase effects.
  void start_flows(sim::Time base = sim::Time(),
                   sim::Time spread = sim::Time::millis(500));

  /// Compute routes. Must be called after all flows/sources are added
  /// and before running the simulator.
  void finalize();

  /// One end-of-run audit of every link (packet conservation and queue
  /// sanity, fault::InvariantAuditor::check_now) and of every sender:
  /// a TCP sender keeps cwnd >= 1, min_rto <= RTO <= max_rto and
  /// snd_una <= next_seq, and every pending agent timer (TCP's RTO;
  /// RAP's send, increase and timeout; TFRC's send and no-feedback;
  /// the TFRC sink's feedback) has a deadline that matches its engine
  /// event and is not in the past. It schedules no
  /// event, so trace digests are unchanged; a violation throws
  /// sim::SimError(kInvariantViolation), which the sweep runner
  /// quarantines as a failed row. Every trial driver calls it after its
  /// last run_until.
  void audit();

  [[nodiscard]] net::Link& bottleneck() noexcept { return *forward_bn_; }
  [[nodiscard]] net::Link& reverse_bottleneck() noexcept {
    return *reverse_bn_;
  }
  [[nodiscard]] net::Node& left_router() noexcept { return *left_router_; }
  [[nodiscard]] net::Node& right_router() noexcept { return *right_router_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const DumbbellConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::deque<Flow>& flows() noexcept { return flows_; }
  [[nodiscard]] const std::deque<Flow>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] net::Topology& topology() noexcept { return topo_; }

  /// Goodput of flow `f` in bits/sec: the bytes its sink has received
  /// since the start of the run, divided by `duration` (0 when
  /// `duration` is not positive). It is a since-start average, so pass
  /// the time elapsed from t = 0.
  [[nodiscard]] double flow_goodput_bps(const Flow& f,
                                        sim::Time duration) const;

 private:
  [[nodiscard]] std::unique_ptr<net::Queue> make_bottleneck_queue();
  net::Node& new_edge_host(bool left);

  sim::Simulator& sim_;
  DumbbellConfig config_;
  net::Topology topo_;
  sim::Rng rng_;

  net::Node* left_router_;
  net::Node* right_router_;
  net::Link* forward_bn_;
  net::Link* reverse_bn_;

  std::vector<std::unique_ptr<cc::Agent>> agents_;
  std::vector<std::unique_ptr<cc::SinkBase>> sinks_;
  std::deque<Flow> flows_;  // deque: references stay valid across add_flow
  net::FlowId next_flow_id_ = 1;
  bool finalized_ = false;
};

/// Build the sending agent + matching sink for `spec` between two
/// nodes. Exposed for scenarios that do not use the Dumbbell helper.
[[nodiscard]] std::pair<std::unique_ptr<cc::Agent>,
                        std::unique_ptr<cc::SinkBase>>
make_flow_endpoints(sim::Simulator& sim, net::Node& src, net::Node& dst,
                    net::FlowId id, const FlowSpec& spec);

}  // namespace slowcc::scenario
