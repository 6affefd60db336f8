#pragma once

// Validated intermediate representation of a declarative scenario spec
// (DESIGN.md §12). `parse_scenario_spec` turns a TomlDoc into this IR,
// rejecting unknown sections/keys and out-of-range values with
// file:line diagnostics; `compile` (spec/compiler.hpp) turns the IR
// plus run options into an actual simulation.
//
// Numeric fields are `Num`: either a literal or a `"$name"` reference
// into [params], resolved at compile time so one spec can be swept
// over its declared parameters via the ordinary sweep grid.
//
// Naming convention carried into the grammar: `_s` keys are points or
// spans on the scenario timeline and scale with the trial's
// duration_scale; `_ms`/`_mbps`/unit-free keys are magnitudes and do
// not scale.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spec/toml.hpp"

namespace slowcc::spec {

/// A numeric spec field: literal value or `$param` reference.
struct Num {
  double value = 0.0;
  std::string ref;   // non-empty => "$ref" into [params]
  std::string_view key;  // key name (a literal), for range-error messages
  int line = 0;
  bool set = false;  // false => field absent, use the default

  [[nodiscard]] bool is_ref() const noexcept { return !ref.empty(); }
};

/// [scenario] — identity and measurement window.
struct ScenarioSection {
  std::string name;
  std::string description;
  std::int64_t version = 1;
  std::string default_algorithm = "tcp";  // fills "$algorithm" holes
  Num warmup_s;   // default 5 s
  Num measure_s;  // required > 0
};

/// [params] — declared tunables: name -> default, in file order.
struct ParamDecl {
  std::string name;
  double default_value = 0.0;
  int line = 0;
};

/// [topology] — the dumbbell, all optional with §3 defaults.
struct TopologySection {
  Num bottleneck_mbps;      // default 10
  Num bottleneck_delay_ms;  // default 23
  Num access_mbps;          // default 100
  Num access_delay_ms;      // default 1
  std::string queue = "red";  // "red" | "droptail"
  Num reverse_tcp_flows;    // default 2
  Num mean_packet_size;     // default 1000
  int line = 0;
};

/// [[flows]] — one group of identical congestion-controlled flows.
struct FlowGroup {
  std::string algorithm = "$algorithm";  // token or the "$algorithm" hole
  Num count;           // default 1
  Num start_s;         // default 0
  Num start_spread_s;  // default 0 (deterministic stagger width)
  Num stop_s;          // default 0 => run to the end
  bool forward = true;
  bool slow_start = true;
  Num packet_size;     // default 1000
  int line = 0;
};

/// [[traffic]] — one uncontrolled / application-driven source.
struct TrafficSection {
  enum class Kind { kCbr, kOnOff, kFlashCrowd, kMedia };
  Kind kind = Kind::kCbr;
  int line = 0;

  // cbr + onoff
  Num rate_mbps;  // cbr rate / onoff peak; may be a $param
  Num start_s;    // default 0
  Num stop_s;     // default 0 => never

  // onoff
  std::string shape = "square";  // square | sawtooth | reverse_sawtooth
  Num on_s;                      // required for onoff
  Num off_s;                     // required for onoff
  Num ramp_steps;                // default 16

  // flash_crowd
  Num arrival_rate_fps;  // default 200
  Num duration_s;        // default 5
  Num transfer_packets;  // default 10

  // media
  std::vector<Num> rungs_mbps;  // ascending ladder, required for media
  Num segment_s;                // default 2
  Num up_fraction;              // default 0.95
  Num down_fraction;            // default 0.75

  // cbr/onoff/media
  Num packet_size;  // default 1000
};

/// [[faults]] — one scripted disturbance against a bottleneck link.
struct FaultSection {
  enum class Kind {
    kBlackout,
    kFlap,
    kBandwidthOscillation,
    kDelayJitter,
    kDelayStep,
    kRetryStall,
    kImpairment,
  };
  Kind kind = Kind::kBlackout;
  bool reverse_link = false;  // link = "bottleneck" (default) | "reverse"
  int line = 0;

  Num at_s;  // default 0 — when the fault begins

  // blackout
  Num duration_s;

  // flap
  Num down_s;
  Num up_s;
  Num cycles;  // flap / bandwidth_oscillation / retry_stall

  // bandwidth_oscillation
  Num period_s;
  Num high_mbps;
  Num low_mbps;

  // delay_jitter
  Num end_s;
  Num interval_s;
  Num amplitude_ms;

  // delay_step
  Num delay_ms;

  // retry_stall: every period_s the link stalls for stall_s with
  // +extra_delay_ms propagation (link-layer retransmission storms)
  Num stall_s;
  Num extra_delay_ms;

  // impairment (Gilbert-Elliott + reorder/duplicate wire model)
  Num p_good_to_bad;          // default 0.001
  Num p_bad_to_good;          // default 0.10
  Num loss_good;              // default 0
  Num loss_bad;               // default 0.5
  Num reorder_probability;    // default 0
  Num duplicate_probability;  // default 0
};

/// [limits] — per-trial budgets. Both optional; 0 means "no opinion"
/// and leaves the runner policy alone.
struct LimitsSection {
  std::int64_t max_events = 0;  // per-trial event budget (0 = unset)
  std::int64_t max_bytes = 0;   // per-trial modeled-memory budget
};

/// [metrics] — which metric families the run reports.
struct MetricsSection {
  bool throughput = true;
  bool loss = true;
  bool fairness = false;
  bool utilization = false;
  bool smoothness = false;
};

/// The whole validated spec.
struct ScenarioSpec {
  std::string source;  // file name for diagnostics
  ScenarioSection scenario;
  std::vector<ParamDecl> params;
  TopologySection topology;
  std::vector<FlowGroup> flows;
  std::vector<TrafficSection> traffic;
  std::vector<FaultSection> faults;
  MetricsSection metrics;
  LimitsSection limits;

  /// True when any flow group uses the "$algorithm" hole (so sweeping
  /// --algorithms over this spec is meaningful).
  [[nodiscard]] bool uses_algorithm_hole() const noexcept;

  /// Declared param, or nullptr.
  [[nodiscard]] const ParamDecl* find_param(std::string_view name) const;
};

/// Range constraint on a resolved numeric field. The validator applies
/// these to literals at parse time; the compiler re-applies them after
/// `$param` resolution so a swept value cannot smuggle in -1 flows.
/// The integer ranges stop at INT_MAX, the widest count the compiler
/// builds.
enum class NumRange {
  kAny,
  kPositive,
  kNonNegative,
  kUnitInterval,
  kPositiveInt,
  kNonNegativeInt,
};

/// Throw sim::SimError(kBadSpec) at `n`'s recorded line when `v`
/// violates `range`.
void check_num_range(const std::string& source, const Num& n, double v,
                     NumRange range);

/// Validate a parsed document into the IR. Throws
/// sim::SimError(kBadSpec) with "<file>:<line>: <key>" detail on any
/// unknown section, unknown key, wrong type, or out-of-range literal.
[[nodiscard]] ScenarioSpec parse_scenario_spec(const TomlDoc& doc);

/// Parse + validate a spec file in one step.
[[nodiscard]] ScenarioSpec parse_scenario_file(const std::string& path);

}  // namespace slowcc::spec
