#include "exp/sweep_spec.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exp/seed.hpp"
#include "exp/serialize.hpp"
#include "sim/error.hpp"

namespace slowcc::exp {
namespace {

[[noreturn]] void bad(const std::string& detail) {
  throw sim::SimError(sim::SimErrc::kBadConfig, "SweepSpec", detail);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// strtod also reads "nan" and "inf", which would reach a trial as a
// timeline or parameter no scenario can run, so only finite values pass.
double parse_double(std::string_view token, std::string_view key) {
  const std::string t(trim(token));
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size() || !std::isfinite(v)) {
    bad(std::string(key) + " expects a finite number: '" + t + "'");
  }
  return v;
}

// strtoull accepts a leading '-' (wrapping the value) and saturates on
// overflow, so both are rejected here rather than run on a garbage value.
std::uint64_t parse_u64(std::string_view token) {
  const std::string t(trim(token));
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (t.empty() || t.front() == '-' || errno == ERANGE ||
      end != t.c_str() + t.size()) {
    bad("malformed integer: '" + t + "'");
  }
  return v;
}

}  // namespace

std::vector<double> parse_double_list(std::string_view text,
                                      std::string_view key) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view token =
        text.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    if (!trim(token).empty()) out.push_back(parse_double(token, key));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (out.empty()) bad(std::string(key) + ": empty value list");
  return out;
}

std::vector<std::string> parse_token_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view token =
        text.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    const std::string_view trimmed = trim(token);
    if (!trimmed.empty()) out.emplace_back(trimmed);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (out.empty()) bad("empty token list");
  return out;
}

double TrialDesc::param(std::string_view name, double fallback) const noexcept {
  for (const auto& [k, v] : params) {
    if (k == name) return v;
  }
  return fallback;
}

std::string TrialDesc::cell_key() const {
  std::string key;
  key.reserve(64);
  key += experiment;
  key += '|';
  key += algorithm;
  if (bandwidth_bps > 0) {
    key += "|bw=";
    key += json_number(bandwidth_bps / 1e6);
  }
  if (rtt_ms > 0) {
    key += "|rtt=";
    key += json_number(rtt_ms);
  }
  for (const auto& [k, v] : params) {
    key += '|';
    key += k;
    key += '=';
    key += json_number(v);
  }
  return key;
}

std::size_t SweepSpec::trial_count() const noexcept {
  const std::size_t bands = bandwidths_bps.empty() ? 1 : bandwidths_bps.size();
  const std::size_t rtts = rtts_ms.empty() ? 1 : rtts_ms.size();
  const std::size_t sweeps = sweep_values.empty() ? 1 : sweep_values.size();
  return algorithms.size() * bands * rtts * sweeps *
         static_cast<std::size_t>(trials > 0 ? trials : 0);
}

std::vector<TrialDesc> SweepSpec::expand() const {
  if (experiment.empty()) bad("no experiment named");
  if (algorithms.empty()) bad("no algorithms listed");
  if (trials < 1) bad("trials must be >= 1");
  if (!std::isfinite(duration_scale) || duration_scale <= 0) {
    bad("duration_scale must be finite and > 0");
  }
  if (sweep_param.empty() != sweep_values.empty()) {
    bad("sweep parameter name and values must be set together");
  }

  // Singleton sentinel axes (0 = "experiment default") keep the loop
  // structure uniform.
  const std::vector<double> bands =
      bandwidths_bps.empty() ? std::vector<double>{0.0} : bandwidths_bps;
  const std::vector<double> rtts =
      rtts_ms.empty() ? std::vector<double>{0.0} : rtts_ms;
  const std::vector<double> sweeps =
      sweep_values.empty() ? std::vector<double>{0.0} : sweep_values;

  std::vector<TrialDesc> out;
  out.reserve(trial_count());
  for (const std::string& alg : algorithms) {
    for (const double bw : bands) {
      for (const double rtt : rtts) {
        for (const double sv : sweeps) {
          TrialDesc cell;
          cell.experiment = experiment;
          cell.algorithm = alg;
          cell.bandwidth_bps = bw;
          cell.rtt_ms = rtt;
          cell.params.reserve(fixed.size() + (sweep_param.empty() ? 0 : 1));
          for (const auto& [k, v] : fixed) cell.params.emplace_back(k, v);
          if (!sweep_param.empty()) cell.params.emplace_back(sweep_param, sv);
          cell.duration_scale = duration_scale;
          // Seed from the grid cell + replicate index, NOT from
          // expansion order, so adding an axis value does not reseed
          // unrelated cells... but cells must still never collide, so
          // hash the cell key into the base first, once per cell.
          std::uint64_t cell_hash = base_seed;
          for (const char c : cell.cell_key()) {
            cell_hash = derive_seed(cell_hash, static_cast<unsigned char>(c));
          }
          for (int t = 0; t < trials; ++t) {
            // The last replicate takes the cell itself.
            TrialDesc& d = t + 1 < trials ? out.emplace_back(cell)
                                          : out.emplace_back(std::move(cell));
            d.trial_id = out.size() - 1;
            d.trial_index = t;
            d.seed = derive_seed(cell_hash, static_cast<std::uint64_t>(t));
          }
        }
      }
    }
  }
  return out;
}

void SweepSpec::assign(std::string_view raw_key, std::string_view raw_value) {
  const std::string key(trim(raw_key));
  const std::string_view value = trim(raw_value);
  if (key == "experiment") {
    experiment = std::string(value);
  } else if (key == "algorithms") {
    algorithms = parse_token_list(value);
  } else if (key == "bandwidths_mbps") {
    bandwidths_bps = parse_double_list(value, key);
    for (double& b : bandwidths_bps) b *= 1e6;
  } else if (key == "bandwidths_bps") {
    bandwidths_bps = parse_double_list(value, key);
  } else if (key == "rtts_ms") {
    rtts_ms = parse_double_list(value, key);
  } else if (key == "trials") {
    const std::uint64_t n = parse_u64(value);
    if (n < 1 || n > static_cast<std::uint64_t>(INT_MAX)) {
      bad("malformed integer: '" + std::string(value) +
          "' (trials must be in [1, " + std::to_string(INT_MAX) + "])");
    }
    trials = static_cast<int>(n);
  } else if (key == "base_seed") {
    base_seed = parse_u64(value);
  } else if (key == "duration_scale") {
    duration_scale = parse_double(value, key);
  } else if (key.rfind("sweep ", 0) == 0) {
    sweep_param = std::string(trim(std::string_view(key).substr(6)));
    if (sweep_param.empty()) bad("'sweep' needs a parameter name");
    sweep_values = parse_double_list(value, sweep_param);
  } else if (key.rfind("set ", 0) == 0) {
    const std::string name(trim(std::string_view(key).substr(4)));
    if (name.empty()) bad("'set' needs a parameter name");
    fixed[name] = parse_double(value, name);
  } else {
    bad("unknown spec key: '" + key + "'");
  }
}

SweepSpec SweepSpec::parse_text(std::string_view text) {
  SweepSpec spec;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string_view line = text.substr(
        start, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - start);
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (!line.empty()) {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        bad("line " + std::to_string(line_no) + ": expected 'key = value'");
      }
      spec.assign(line.substr(0, eq), line.substr(eq + 1));
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return spec;
}

SweepSpec SweepSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) bad("cannot open spec file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_text(buf.str());
}

std::string SweepSpec::to_text() const {
  std::ostringstream out;
  out << "experiment = " << experiment << '\n';
  out << "algorithms = ";
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    out << (i ? "," : "") << algorithms[i];
  }
  out << '\n';
  const auto list = [&out](const char* key, const std::vector<double>& vs) {
    if (vs.empty()) return;
    out << key << " = ";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out << (i ? "," : "") << json_number(vs[i]);
    }
    out << '\n';
  };
  list("bandwidths_bps", bandwidths_bps);
  list("rtts_ms", rtts_ms);
  for (const auto& [k, v] : fixed) {
    out << "set " << k << " = " << json_number(v) << '\n';
  }
  if (!sweep_param.empty()) {
    out << "sweep " << sweep_param << " = ";
    for (std::size_t i = 0; i < sweep_values.size(); ++i) {
      out << (i ? "," : "") << json_number(sweep_values[i]);
    }
    out << '\n';
  }
  out << "trials = " << trials << '\n';
  out << "base_seed = " << base_seed << '\n';
  out << "duration_scale = " << json_number(duration_scale) << '\n';
  return out.str();
}

std::string SweepSpec::describe() const {
  std::ostringstream out;
  out << experiment << ": " << algorithms.size() << " alg";
  if (!bandwidths_bps.empty()) {
    out << " x " << bandwidths_bps.size() << " bw";
  }
  if (!rtts_ms.empty()) out << " x " << rtts_ms.size() << " rtt";
  if (!sweep_values.empty()) {
    out << " x " << sweep_values.size() << " " << sweep_param;
  }
  out << " x " << trials << " trials = " << trial_count() << " trials";
  return out.str();
}

}  // namespace slowcc::exp
