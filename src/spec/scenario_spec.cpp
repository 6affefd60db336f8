#include "spec/scenario_spec.hpp"

#include <cctype>
#include <cmath>
#include <limits>

#include "sim/error.hpp"

namespace slowcc::spec {

namespace {

bool is_identifier(std::string_view s) noexcept {
  if (s.empty()) return false;
  for (const char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

/// Marks the keys of one table the validator consumed (on the entries
/// themselves), so anything left over is reported as an unknown key
/// with its own line.
class SectionReader {
 public:
  SectionReader(const TomlTable& table, const std::string& source)
      : table_(table), source_(source) {
    for (const TomlKeyValue& kv : table_.entries) kv.consumed = false;
  }

  [[nodiscard]] const TomlValue* take(std::string_view key) {
    for (const TomlKeyValue& kv : table_.entries) {
      if (kv.key == key) {
        kv.consumed = true;
        return &kv.value;
      }
    }
    return nullptr;
  }

  /// Numeric-or-$ref field. Absent => Num with set=false. `key` must be
  /// a literal: the Num keeps a view of it.
  [[nodiscard]] Num num(std::string_view key) {
    Num n;
    n.key = key;
    const TomlValue* v = take(key);
    if (v == nullptr) return n;
    n.set = true;
    n.line = v->line;
    if (v->is_number()) {
      n.value = v->number;
      return n;
    }
    if (v->kind == TomlValue::Kind::kString && !v->text.empty() &&
        v->text.front() == '$') {
      n.ref = v->text.substr(1);
      if (!is_identifier(n.ref)) {
        spec_error(source_, v->line,
                   "key '" + std::string(key) +
                       "': malformed parameter reference \"$" + n.ref + "\"");
      }
      return n;
    }
    spec_error(source_, v->line,
               "key '" + std::string(key) +
                   "' must be a number or a \"$param\" reference");
  }

  /// String field (a view of the document), or `fallback`.
  [[nodiscard]] std::string_view string_or(std::string_view key,
                                           std::string_view fallback) {
    const TomlValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->kind != TomlValue::Kind::kString) {
      spec_error(source_, v->line,
                 "key '" + std::string(key) + "' must be a string");
    }
    return v->text;
  }

  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) {
    const TomlValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->kind != TomlValue::Kind::kBool) {
      spec_error(source_, v->line,
                 "key '" + std::string(key) + "' must be true or false");
    }
    return v->boolean;
  }

  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) {
    const TomlValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->kind != TomlValue::Kind::kInteger) {
      spec_error(source_, v->line,
                 "key '" + std::string(key) + "' must be an integer");
    }
    return v->integer;
  }

  /// Error on any key the section did not consume.
  void finish(std::string_view section) {
    for (const TomlKeyValue& kv : table_.entries) {
      if (!kv.consumed) {
        spec_error(source_, kv.line,
                   "unknown key '" + std::string(kv.key) + "' in [" +
                       std::string(section) + "]");
      }
    }
  }

 private:
  const TomlTable& table_;
  const std::string& source_;
};

void check_literal(const std::string& source, const Num& n, NumRange range) {
  if (n.set && !n.is_ref()) check_num_range(source, n, n.value, range);
}

ScenarioSection parse_scenario_section(const TomlDoc& doc) {
  const TomlTable* t = doc.find_table("scenario");
  if (t == nullptr) {
    spec_error(doc.source, 1, "missing required [scenario] section");
  }
  SectionReader r(*t, doc.source);
  ScenarioSection s;
  s.name = r.string_or("name", "");
  if (!is_identifier(s.name)) {
    spec_error(doc.source, t->line,
               "key 'name': scenario name '" + s.name +
                   "' must be a non-empty [a-z0-9_] identifier");
  }
  s.description = r.string_or("description", "");
  s.version = r.int_or("version", 1);
  if (s.version != 1) {
    spec_error(doc.source, t->line,
               "key 'version': unsupported spec version " +
                   std::to_string(s.version) + " (this build reads 1)");
  }
  s.default_algorithm = r.string_or("algorithm", "tcp");
  if (s.default_algorithm.empty() || s.default_algorithm.front() == '$') {
    spec_error(doc.source, t->line,
               "key 'algorithm': default algorithm must be a literal "
               "token (the \"$algorithm\" hole lives in [[flows]])");
  }
  s.warmup_s = r.num("warmup_s");
  s.measure_s = r.num("measure_s");
  if (!s.measure_s.set) {
    spec_error(doc.source, t->line,
               "key 'measure_s': [scenario] must set a measurement "
               "window");
  }
  check_literal(doc.source, s.warmup_s, NumRange::kNonNegative);
  check_literal(doc.source, s.measure_s, NumRange::kPositive);
  r.finish("scenario");
  return s;
}

std::vector<ParamDecl> parse_params_section(const TomlDoc& doc) {
  std::vector<ParamDecl> out;
  const TomlTable* t = doc.find_table("params");
  if (t == nullptr) return out;
  out.reserve(t->entries.size());
  for (const auto& kv : t->entries) {
    if (!kv.value.is_number()) {
      spec_error(doc.source, kv.line,
                 "key '" + std::string(kv.key) +
                     "': [params] declares numeric defaults only");
    }
    if (kv.key == "algorithm") {
      spec_error(doc.source, kv.line,
                 "key 'algorithm': reserved (the \"$algorithm\" hole is "
                 "filled by --algorithms, not [params])");
    }
    ParamDecl p;
    p.name = kv.key;
    p.default_value = kv.value.number;
    p.line = kv.line;
    out.push_back(std::move(p));
  }
  return out;
}

TopologySection parse_topology_section(const TomlDoc& doc) {
  TopologySection s;
  const TomlTable* t = doc.find_table("topology");
  if (t == nullptr) return s;
  s.line = t->line;
  SectionReader r(*t, doc.source);
  s.bottleneck_mbps = r.num("bottleneck_mbps");
  s.bottleneck_delay_ms = r.num("bottleneck_delay_ms");
  s.access_mbps = r.num("access_mbps");
  s.access_delay_ms = r.num("access_delay_ms");
  s.queue = r.string_or("queue", "red");
  if (s.queue != "red" && s.queue != "droptail") {
    spec_error(doc.source, t->line,
               "key 'queue': expected \"red\" or \"droptail\", got \"" +
                   s.queue + "\"");
  }
  s.reverse_tcp_flows = r.num("reverse_tcp_flows");
  s.mean_packet_size = r.num("mean_packet_size");
  check_literal(doc.source, s.bottleneck_mbps, NumRange::kPositive);
  check_literal(doc.source, s.bottleneck_delay_ms, NumRange::kNonNegative);
  check_literal(doc.source, s.access_mbps, NumRange::kPositive);
  check_literal(doc.source, s.access_delay_ms, NumRange::kNonNegative);
  check_literal(doc.source, s.reverse_tcp_flows, NumRange::kNonNegativeInt);
  check_literal(doc.source, s.mean_packet_size, NumRange::kPositiveInt);
  r.finish("topology");
  return s;
}

FlowGroup parse_flow_group(const TomlTable& t, const std::string& source) {
  SectionReader r(t, source);
  FlowGroup g;
  g.line = t.line;
  g.algorithm = r.string_or("algorithm", "$algorithm");
  if (g.algorithm.empty()) {
    spec_error(source, t.line, "key 'algorithm': empty algorithm token");
  }
  if (g.algorithm.front() == '$' && g.algorithm != "$algorithm") {
    spec_error(source, t.line,
               "key 'algorithm': the only reference allowed here is "
               "\"$algorithm\", got \"" +
                   g.algorithm + "\"");
  }
  g.count = r.num("count");
  g.start_s = r.num("start_s");
  g.start_spread_s = r.num("start_spread_s");
  g.stop_s = r.num("stop_s");
  const std::string_view dir = r.string_or("direction", "forward");
  if (dir != "forward" && dir != "reverse") {
    spec_error(source, t.line,
               "key 'direction': expected \"forward\" or \"reverse\", "
               "got \"" +
                   std::string(dir) + "\"");
  }
  g.forward = (dir == "forward");
  g.slow_start = r.bool_or("slow_start", true);
  g.packet_size = r.num("packet_size");
  check_literal(source, g.count, NumRange::kNonNegativeInt);
  check_literal(source, g.start_s, NumRange::kNonNegative);
  check_literal(source, g.start_spread_s, NumRange::kNonNegative);
  check_literal(source, g.stop_s, NumRange::kNonNegative);
  check_literal(source, g.packet_size, NumRange::kPositiveInt);
  r.finish("flows");
  return g;
}

TrafficSection parse_traffic_section(const TomlTable& t,
                                     const std::string& source) {
  SectionReader r(t, source);
  TrafficSection s;
  s.line = t.line;
  const std::string_view kind = r.string_or("kind", "");
  if (kind == "cbr") {
    s.kind = TrafficSection::Kind::kCbr;
  } else if (kind == "onoff") {
    s.kind = TrafficSection::Kind::kOnOff;
  } else if (kind == "flash_crowd") {
    s.kind = TrafficSection::Kind::kFlashCrowd;
  } else if (kind == "media") {
    s.kind = TrafficSection::Kind::kMedia;
  } else {
    spec_error(source, t.line,
               "key 'kind': expected cbr | onoff | flash_crowd | media, "
               "got \"" +
                   std::string(kind) + "\"");
  }
  s.start_s = r.num("start_s");
  s.stop_s = r.num("stop_s");
  check_literal(source, s.start_s, NumRange::kNonNegative);
  check_literal(source, s.stop_s, NumRange::kNonNegative);

  switch (s.kind) {
    case TrafficSection::Kind::kCbr:
      s.rate_mbps = r.num("rate_mbps");
      s.packet_size = r.num("packet_size");
      if (!s.rate_mbps.set) {
        spec_error(source, t.line, "key 'rate_mbps': cbr traffic needs a rate");
      }
      break;
    case TrafficSection::Kind::kOnOff:
      s.rate_mbps = r.num("rate_mbps");
      s.packet_size = r.num("packet_size");
      if (!s.rate_mbps.set) {
        spec_error(source, t.line,
                   "key 'rate_mbps': onoff traffic needs a peak rate");
      }
      s.shape = r.string_or("shape", "square");
      if (s.shape != "square" && s.shape != "sawtooth" &&
          s.shape != "reverse_sawtooth") {
        spec_error(source, t.line,
                   "key 'shape': expected square | sawtooth | "
                   "reverse_sawtooth, got \"" +
                       s.shape + "\"");
      }
      s.on_s = r.num("on_s");
      s.off_s = r.num("off_s");
      if (!s.on_s.set || !s.off_s.set) {
        spec_error(source, t.line,
                   "onoff traffic needs both 'on_s' and 'off_s'");
      }
      s.ramp_steps = r.num("ramp_steps");
      check_literal(source, s.on_s, NumRange::kPositive);
      check_literal(source, s.off_s, NumRange::kPositive);
      check_literal(source, s.ramp_steps, NumRange::kPositiveInt);
      break;
    case TrafficSection::Kind::kFlashCrowd:
      s.arrival_rate_fps = r.num("arrival_rate_fps");
      s.duration_s = r.num("duration_s");
      s.transfer_packets = r.num("transfer_packets");
      s.packet_size = r.num("packet_size");
      check_literal(source, s.arrival_rate_fps, NumRange::kPositive);
      check_literal(source, s.duration_s, NumRange::kPositive);
      check_literal(source, s.transfer_packets, NumRange::kPositiveInt);
      break;
    case TrafficSection::Kind::kMedia: {
      const TomlValue* rungs = r.take("rungs_mbps");
      if (rungs == nullptr || rungs->kind != TomlValue::Kind::kArray ||
          rungs->array.empty()) {
        spec_error(source, t.line,
                   "key 'rungs_mbps': media traffic needs a non-empty "
                   "rate ladder array");
      }
      for (const TomlValue& e : rungs->array) {
        Num n;
        n.key = "rungs_mbps";
        n.line = e.line;
        n.set = true;
        if (e.is_number()) {
          n.value = e.number;
        } else if (e.kind == TomlValue::Kind::kString && !e.text.empty() &&
                   e.text.front() == '$') {
          n.ref = e.text.substr(1);
        } else {
          spec_error(source, e.line,
                     "key 'rungs_mbps': ladder entries must be numbers "
                     "or \"$param\" references");
        }
        check_literal(source, n, NumRange::kPositive);
        s.rungs_mbps.push_back(std::move(n));
      }
      s.segment_s = r.num("segment_s");
      s.up_fraction = r.num("up_fraction");
      s.down_fraction = r.num("down_fraction");
      s.packet_size = r.num("packet_size");
      check_literal(source, s.segment_s, NumRange::kPositive);
      check_literal(source, s.up_fraction, NumRange::kUnitInterval);
      check_literal(source, s.down_fraction, NumRange::kUnitInterval);
      break;
    }
  }
  check_literal(source, s.rate_mbps, NumRange::kPositive);
  check_literal(source, s.packet_size, NumRange::kPositiveInt);
  r.finish("traffic");
  return s;
}

FaultSection parse_fault_section(const TomlTable& t,
                                 const std::string& source) {
  SectionReader r(t, source);
  FaultSection s;
  s.line = t.line;
  const std::string_view kind = r.string_or("kind", "");
  const std::string_view link = r.string_or("link", "bottleneck");
  if (link != "bottleneck" && link != "reverse") {
    spec_error(source, t.line,
               "key 'link': expected \"bottleneck\" or \"reverse\", got \"" +
                   std::string(link) + "\"");
  }
  s.reverse_link = (link == "reverse");
  s.at_s = r.num("at_s");
  check_literal(source, s.at_s, NumRange::kNonNegative);

  if (kind == "blackout") {
    s.kind = FaultSection::Kind::kBlackout;
    s.duration_s = r.num("duration_s");
    if (!s.duration_s.set) {
      spec_error(source, t.line, "key 'duration_s': blackout needs a length");
    }
    check_literal(source, s.duration_s, NumRange::kPositive);
  } else if (kind == "flap") {
    s.kind = FaultSection::Kind::kFlap;
    s.down_s = r.num("down_s");
    s.up_s = r.num("up_s");
    s.cycles = r.num("cycles");
    if (!s.down_s.set || !s.up_s.set) {
      spec_error(source, t.line, "flap needs both 'down_s' and 'up_s'");
    }
    check_literal(source, s.down_s, NumRange::kPositive);
    check_literal(source, s.up_s, NumRange::kPositive);
    check_literal(source, s.cycles, NumRange::kPositiveInt);
  } else if (kind == "bandwidth_oscillation") {
    s.kind = FaultSection::Kind::kBandwidthOscillation;
    s.period_s = r.num("period_s");
    s.high_mbps = r.num("high_mbps");
    s.low_mbps = r.num("low_mbps");
    s.cycles = r.num("cycles");
    if (!s.period_s.set || !s.high_mbps.set || !s.low_mbps.set) {
      spec_error(source, t.line,
                 "bandwidth_oscillation needs 'period_s', 'high_mbps', "
                 "and 'low_mbps'");
    }
    check_literal(source, s.period_s, NumRange::kPositive);
    check_literal(source, s.high_mbps, NumRange::kPositive);
    check_literal(source, s.low_mbps, NumRange::kPositive);
    check_literal(source, s.cycles, NumRange::kPositiveInt);
  } else if (kind == "delay_jitter") {
    s.kind = FaultSection::Kind::kDelayJitter;
    s.end_s = r.num("end_s");
    s.interval_s = r.num("interval_s");
    s.amplitude_ms = r.num("amplitude_ms");
    if (!s.end_s.set || !s.interval_s.set || !s.amplitude_ms.set) {
      spec_error(source, t.line,
                 "delay_jitter needs 'end_s', 'interval_s', and "
                 "'amplitude_ms'");
    }
    check_literal(source, s.end_s, NumRange::kPositive);
    check_literal(source, s.interval_s, NumRange::kPositive);
    check_literal(source, s.amplitude_ms, NumRange::kNonNegative);
  } else if (kind == "delay_step") {
    s.kind = FaultSection::Kind::kDelayStep;
    s.delay_ms = r.num("delay_ms");
    if (!s.delay_ms.set) {
      spec_error(source, t.line,
                 "key 'delay_ms': delay_step needs the new delay");
    }
    check_literal(source, s.delay_ms, NumRange::kNonNegative);
  } else if (kind == "retry_stall") {
    s.kind = FaultSection::Kind::kRetryStall;
    s.period_s = r.num("period_s");
    s.stall_s = r.num("stall_s");
    s.extra_delay_ms = r.num("extra_delay_ms");
    s.cycles = r.num("cycles");
    if (!s.period_s.set || !s.stall_s.set || !s.extra_delay_ms.set) {
      spec_error(source, t.line,
                 "retry_stall needs 'period_s', 'stall_s', and "
                 "'extra_delay_ms'");
    }
    check_literal(source, s.period_s, NumRange::kPositive);
    check_literal(source, s.stall_s, NumRange::kPositive);
    check_literal(source, s.extra_delay_ms, NumRange::kNonNegative);
    check_literal(source, s.cycles, NumRange::kPositiveInt);
  } else if (kind == "impairment") {
    s.kind = FaultSection::Kind::kImpairment;
    s.p_good_to_bad = r.num("p_good_to_bad");
    s.p_bad_to_good = r.num("p_bad_to_good");
    s.loss_good = r.num("loss_good");
    s.loss_bad = r.num("loss_bad");
    s.reorder_probability = r.num("reorder_probability");
    s.duplicate_probability = r.num("duplicate_probability");
    check_literal(source, s.p_good_to_bad, NumRange::kUnitInterval);
    check_literal(source, s.p_bad_to_good, NumRange::kUnitInterval);
    check_literal(source, s.loss_good, NumRange::kUnitInterval);
    check_literal(source, s.loss_bad, NumRange::kUnitInterval);
    check_literal(source, s.reorder_probability, NumRange::kUnitInterval);
    check_literal(source, s.duplicate_probability, NumRange::kUnitInterval);
  } else {
    spec_error(source, t.line,
               "key 'kind': expected blackout | flap | "
               "bandwidth_oscillation | delay_jitter | delay_step | "
               "retry_stall | impairment, got \"" +
                   std::string(kind) + "\"");
  }
  r.finish("faults");
  return s;
}

MetricsSection parse_metrics_section(const TomlDoc& doc) {
  MetricsSection s;
  const TomlTable* t = doc.find_table("metrics");
  if (t == nullptr) return s;
  SectionReader r(*t, doc.source);
  s.throughput = r.bool_or("throughput", s.throughput);
  s.loss = r.bool_or("loss", s.loss);
  s.fairness = r.bool_or("fairness", s.fairness);
  s.utilization = r.bool_or("utilization", s.utilization);
  s.smoothness = r.bool_or("smoothness", s.smoothness);
  r.finish("metrics");
  return s;
}

LimitsSection parse_limits_section(const TomlDoc& doc) {
  LimitsSection s;
  const TomlTable* t = doc.find_table("limits");
  if (t == nullptr) return s;
  SectionReader r(*t, doc.source);
  s.max_events = r.int_or("max_events", s.max_events);
  s.max_bytes = r.int_or("max_bytes", s.max_bytes);
  if (s.max_events < 0 || s.max_bytes < 0) {
    spec_error(doc.source, t->line,
               "[limits] budgets must be >= 0 (0 = unset)");
  }
  r.finish("limits");
  return s;
}

/// Every $ref in `n` must name a declared param.
void check_ref(const ScenarioSpec& spec, const Num& n) {
  if (!n.set || !n.is_ref()) return;
  if (spec.find_param(n.ref) == nullptr) {
    spec_error(spec.source, n.line,
               "key '" + std::string(n.key) + "': reference \"$" + n.ref +
                   "\" does not name a [params] entry");
  }
}

void check_refs(const ScenarioSpec& spec) {
  const auto each = [&](const Num& n) { check_ref(spec, n); };
  each(spec.scenario.warmup_s);
  each(spec.scenario.measure_s);
  each(spec.topology.bottleneck_mbps);
  each(spec.topology.bottleneck_delay_ms);
  each(spec.topology.access_mbps);
  each(spec.topology.access_delay_ms);
  each(spec.topology.reverse_tcp_flows);
  each(spec.topology.mean_packet_size);
  for (const FlowGroup& g : spec.flows) {
    each(g.count);
    each(g.start_s);
    each(g.start_spread_s);
    each(g.stop_s);
    each(g.packet_size);
  }
  for (const TrafficSection& t : spec.traffic) {
    each(t.rate_mbps);
    each(t.start_s);
    each(t.stop_s);
    each(t.on_s);
    each(t.off_s);
    each(t.ramp_steps);
    each(t.arrival_rate_fps);
    each(t.duration_s);
    each(t.transfer_packets);
    for (const Num& rung : t.rungs_mbps) each(rung);
    each(t.segment_s);
    each(t.up_fraction);
    each(t.down_fraction);
    each(t.packet_size);
  }
  for (const FaultSection& f : spec.faults) {
    each(f.at_s);
    each(f.duration_s);
    each(f.down_s);
    each(f.up_s);
    each(f.cycles);
    each(f.period_s);
    each(f.high_mbps);
    each(f.low_mbps);
    each(f.end_s);
    each(f.interval_s);
    each(f.amplitude_ms);
    each(f.delay_ms);
    each(f.stall_s);
    each(f.extra_delay_ms);
    each(f.p_good_to_bad);
    each(f.p_bad_to_good);
    each(f.loss_good);
    each(f.loss_bad);
    each(f.reorder_probability);
    each(f.duplicate_probability);
  }
}

}  // namespace

void check_num_range(const std::string& source, const Num& n, double v,
                     NumRange range) {
  const auto fail = [&](const std::string& want) {
    spec_error(source, n.line,
               "key '" + std::string(n.key) + "': value " +
                   std::to_string(v) + " " + want);
  };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  if (!std::isfinite(v)) fail("must be finite");
  switch (range) {
    case NumRange::kAny:
      break;
    case NumRange::kPositive:
      if (v <= 0.0) fail("must be > 0");
      break;
    case NumRange::kNonNegative:
      if (v < 0.0) fail("must be >= 0");
      break;
    case NumRange::kUnitInterval:
      if (v < 0.0 || v > 1.0) fail("must be in [0, 1]");
      break;
    case NumRange::kPositiveInt:
      if (v <= 0.0 || v != std::floor(v)) {
        fail("must be a positive integer");
      }
      if (v > kMaxInt) fail("must be <= " + std::to_string(kMaxInt));
      break;
    case NumRange::kNonNegativeInt:
      if (v < 0.0 || v != std::floor(v)) {
        fail("must be a non-negative integer");
      }
      if (v > kMaxInt) fail("must be <= " + std::to_string(kMaxInt));
      break;
  }
}

bool ScenarioSpec::uses_algorithm_hole() const noexcept {
  for (const FlowGroup& g : flows) {
    if (g.algorithm == "$algorithm") return true;
  }
  return false;
}

const ParamDecl* ScenarioSpec::find_param(std::string_view name) const {
  for (const ParamDecl& p : params) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

ScenarioSpec parse_scenario_spec(const TomlDoc& doc) {
  // Reject unknown sections first so a typoed [fault] (vs [[faults]])
  // fails by name, not by silently running fault-free.
  for (const TomlTable& t : doc.tables) {
    const bool known_plain = !t.is_array &&
                             (t.name == "scenario" || t.name == "params" ||
                              t.name == "topology" || t.name == "metrics" ||
                              t.name == "limits");
    const bool known_array =
        t.is_array && (t.name == "flows" || t.name == "traffic" ||
                       t.name == "faults");
    if (!known_plain && !known_array) {
      spec_error(doc.source, t.line,
                 std::string("unknown section ") +
                     (t.is_array ? "[[" : "[") + std::string(t.name) +
                     (t.is_array ? "]]" : "]"));
    }
  }

  ScenarioSpec spec;
  spec.source = doc.source;
  spec.scenario = parse_scenario_section(doc);
  spec.params = parse_params_section(doc);
  spec.topology = parse_topology_section(doc);
  // Every [[flows]], then every [[traffic]], then every [[faults]], each
  // in file order.
  const auto each_array = [&doc](std::string_view name, auto& out,
                                 auto parse) {
    std::size_t n = 0;
    for (const TomlTable& t : doc.tables) n += t.is_array && t.name == name;
    out.reserve(n);
    for (const TomlTable& t : doc.tables) {
      if (t.is_array && t.name == name) out.push_back(parse(t, doc.source));
    }
  };
  each_array("flows", spec.flows, parse_flow_group);
  each_array("traffic", spec.traffic, parse_traffic_section);
  each_array("faults", spec.faults, parse_fault_section);
  spec.metrics = parse_metrics_section(doc);
  spec.limits = parse_limits_section(doc);

  if (spec.flows.empty()) {
    spec_error(doc.source, 1,
               "spec defines no [[flows]] — nothing to measure");
  }
  check_refs(spec);
  return spec;
}

ScenarioSpec parse_scenario_file(const std::string& path) {
  return parse_scenario_spec(parse_toml_file(path));
}

}  // namespace slowcc::spec
