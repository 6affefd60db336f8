// bench_report: perf-regression pipeline runner for the engine
// micro-benchmarks.
//
// Generate mode runs bench/micro_engine with google-benchmark's JSON
// output and writes BENCH_engine.json (schema slowcc.bench_engine.v2)
// with ns-per-op and items-per-second per benchmark (the two
// BM_EventQueue* rows, and the BM_SaturatedDumbbell,
// BM_DumbbellTcpSecond and BM_DumbbellTfrcSecond rows, whose items are
// executed simulator events, so items_per_second is their events/s),
// and the benchmark child's peak RSS (getrusage(RUSAGE_CHILDREN), so a
// memory regression in the engine shows up next to the timing
// numbers). Validate mode re-reads such a file and checks the schema
// and that every required row is present — that is the bench_smoke
// ctest:
//
//   bench_report --bench build/bench/micro_engine --out BENCH_engine.json
//   bench_report --validate BENCH_engine.json
//
// Exit codes: 0 ok, 1 validation failure, 2 usage or execution error.

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr const char* kSchema = "slowcc.bench_engine.v2";
// Every report must carry one row per benchmark here: the event-queue
// micro-benchmarks, the saturated bottleneck's packet hot path, and one
// simulated second of the loaded dumbbell.
const std::vector<std::string> kRequiredBenchmarks = {
    "BM_EventQueueScheduleRun", "BM_EventQueueCancelHeavy",
    "BM_SaturatedDumbbell", "BM_DumbbellTcpSecond", "BM_DumbbellTfrcSecond"};

struct Sample {
  std::string bench;
  double ns_per_op = 0.0;
  double items_per_second = 0.0;
};

/// Run `cmd` and capture stdout. Returns false when the command could
/// not be started or exited non-zero.
bool slurp_command(const std::string& cmd, std::string* out) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out->append(buf.data(), n);
  }
  return pclose(pipe) == 0;
}

/// Extract `"key": <number>` from a JSON fragment; NaN-free: returns
/// false when the key is absent.
bool find_number(const std::string& text, const std::string& key,
                 double* value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *value = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// Extract `"key": "<string>"` from a JSON fragment.
bool find_string(const std::string& text, const std::string& key,
                 std::string* value) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find('"', pos + needle.size());
  if (pos == std::string::npos) return false;
  const std::size_t end = text.find('"', pos + 1);
  if (end == std::string::npos) return false;
  *value = text.substr(pos + 1, end - pos - 1);
  return true;
}

/// Peak resident set of every waited-for child, in bytes (the
/// benchmark subprocess dominates). 0 when getrusage fails.
std::uint64_t children_peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0;
  if (usage.ru_maxrss <= 0) return 0;
  // ru_maxrss is KiB on Linux.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

double to_nanos(double value, const std::string& unit) {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  return value * 1e9;  // "s"
}

/// Parse google-benchmark JSON output into per-benchmark samples. Chunks
/// the text on "name" keys — only benchmark entries carry that key.
std::vector<Sample> parse_benchmark_json(const std::string& text) {
  std::vector<Sample> samples;
  const std::string kNameKey = "\"name\":";
  std::size_t pos = text.find(kNameKey);
  while (pos != std::string::npos) {
    const std::size_t next = text.find(kNameKey, pos + kNameKey.size());
    const std::string chunk =
        text.substr(pos, next == std::string::npos ? std::string::npos
                                                   : next - pos);
    pos = next;
    std::string name;
    if (!find_string(chunk, "name", &name)) continue;
    if (name.rfind("BM_", 0) != 0) continue;
    double cpu_time = 0.0;
    double items = 0.0;
    std::string unit = "ns";
    if (!find_number(chunk, "cpu_time", &cpu_time)) continue;
    (void)find_string(chunk, "time_unit", &unit);
    (void)find_number(chunk, "items_per_second", &items);
    Sample s;
    s.bench = name;
    s.ns_per_op = to_nanos(cpu_time, unit);
    s.items_per_second = items;
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Wall-clock of one full slowcc_lint run over the tree, in ms. The
/// linter sits on the edit-compile loop and in every CI run, so its
/// latency is tracked next to the engine numbers (every run is a cold
/// full-tree scan). Returns -1 when the run cannot start.
double time_lint_run(const std::string& lint_bin,
                     const std::string& lint_root) {
  const std::string cmd = lint_bin + " --root " + lint_root +
                          " src bench tools examples >/dev/null 2>&1";
  // slowcc-lint: allow(no-wall-clock) measuring the linter's own wall latency is the point of this row
  const auto begin = std::chrono::steady_clock::now();
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1.0;
  pclose(pipe);  // exit code irrelevant: the lint gate ran earlier in CI
  // slowcc-lint: allow(no-wall-clock) measuring the linter's own wall latency is the point of this row
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

int generate(const std::string& bench_bin, const std::string& out_path,
             const std::string& min_time, const std::string& lint_bin,
             const std::string& lint_root) {
  const std::string cmd = bench_bin +
                          " '--benchmark_filter=BM_EventQueue|BM_SaturatedDumbbell|"
                          "BM_DumbbellTcpSecond|BM_DumbbellTfrcSecond'"
                          " --benchmark_format=json"
                          " --benchmark_min_time=" +
                          min_time + " 2>/dev/null";
  std::string json;
  if (!slurp_command(cmd, &json)) {
    std::cerr << "bench_report: failed to run '" << cmd << "'\n";
    return 2;
  }
  // Sampled right after pclose() reaped the benchmark child, so the
  // reading covers the whole benchmark run.
  const std::uint64_t peak_rss = children_peak_rss_bytes();
  const std::vector<Sample> samples = parse_benchmark_json(json);
  if (samples.empty()) {
    std::cerr << "bench_report: no BM_* samples in benchmark output\n";
    return 2;
  }

  double lint_wall_ms = -1.0;
  if (!lint_bin.empty()) {
    lint_wall_ms = time_lint_run(lint_bin, lint_root);
    if (lint_wall_ms < 0.0) {
      std::cerr << "bench_report: WARNING: could not run lint at " << lint_bin
                << " (lint_wall_ms omitted)\n";
    }
  }

  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"peak_rss_bytes\": "
      << peak_rss << ",\n";
  if (lint_wall_ms >= 0.0) {
    out << "  \"lint_wall_ms\": " << lint_wall_ms << ",\n";
  }
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << "    {\"name\": \"" << s.bench
        << "\", \"ns_per_op\": " << s.ns_per_op
        << ", \"items_per_second\": " << s.items_per_second << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::ofstream file(out_path);
  if (!file.good()) {
    std::cerr << "bench_report: cannot write " << out_path << "\n";
    return 2;
  }
  file << out.str();
  std::cout << "bench_report: wrote " << out_path << " ("
            << samples.size() << " samples, peak_rss_bytes=" << peak_rss;
  if (lint_wall_ms >= 0.0) std::cout << ", lint_wall_ms=" << lint_wall_ms;
  std::cout << ")\n";
  return 0;
}

int validate(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) {
    std::cerr << "bench_report: cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  const std::string text = buf.str();

  std::string schema;
  if (!find_string(text, "schema", &schema) || schema != kSchema) {
    std::cerr << "bench_report: " << path << " missing schema \"" << kSchema
              << "\"\n";
    return 1;
  }
  // Peak RSS is informational (warn-only): older reports predate the
  // field, and absolute memory varies across runners.
  double peak_rss = 0.0;
  if (!find_number(text, "peak_rss_bytes", &peak_rss) || peak_rss <= 0.0) {
    std::cerr << "bench_report: WARNING: " << path
              << " has no peak_rss_bytes sample (not gating)\n";
  } else {
    std::cout << "bench_report: peak_rss_bytes="
              << static_cast<std::uint64_t>(peak_rss) << "\n";
  }
  // lint_wall_ms is likewise informational: present only when the
  // generator was pointed at a slowcc_lint binary.
  double lint_wall_ms = 0.0;
  if (find_number(text, "lint_wall_ms", &lint_wall_ms)) {
    std::cout << "bench_report: lint_wall_ms=" << lint_wall_ms << "\n";
  }
  int failures = 0;
  for (const std::string& bench : kRequiredBenchmarks) {
    const std::string needle =
        "{\"name\": \"" + bench + "\", \"ns_per_op\"";
    const std::size_t row = text.find(needle);
    double items_per_second = 0.0;
    if (row == std::string::npos) {
      std::cerr << "bench_report: " << path << " lacks " << bench << "\n";
      ++failures;
    } else if (!find_number(text.substr(row), "items_per_second",
                            &items_per_second) ||
               items_per_second <= 0.0) {
      std::cerr << "bench_report: " << path
                << " has no items_per_second for " << bench << "\n";
      ++failures;
    } else {
      std::cout << "bench_report: " << bench
                << " items_per_second=" << items_per_second << "\n";
    }
  }
  if (failures == 0) std::cout << "bench_report: " << path << " valid\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_bin;
  std::string out_path = "BENCH_engine.json";
  std::string validate_path;
  std::string min_time = "0.05";
  std::string lint_bin;
  std::string lint_root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_report: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--bench") {
      bench_bin = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--min-time") {
      min_time = next();
    } else if (arg == "--lint") {
      lint_bin = next();
    } else if (arg == "--lint-root") {
      lint_root = next();
    } else if (arg == "--validate") {
      validate_path = next();
    } else {
      std::cerr << "usage: bench_report --bench <micro_engine> [--out F]"
                   " [--min-time S] [--lint <slowcc_lint> [--lint-root D]]"
                   " | --validate <F>\n";
      return 2;
    }
  }
  if (!validate_path.empty()) {
    return validate(validate_path);
  }
  if (bench_bin.empty()) {
    std::cerr << "bench_report: need --bench or --validate\n";
    return 2;
  }
  return generate(bench_bin, out_path, min_time, lint_bin, lint_root);
}
