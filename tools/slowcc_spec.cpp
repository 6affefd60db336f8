// slowcc_spec — compile, run, and golden-check declarative scenario
// specs (specs/*.toml, DESIGN.md §12).
//
//   slowcc_spec --list DIR                 one line per spec
//   slowcc_spec --run FILE [--algorithm A] [--scale S] [--seed N]
//   slowcc_spec --check DIR [--scale S]    CI gate: every spec must
//       (a) parse and validate, (b) be named after its file stem, and
//       (c) match its committed golden trace digest under DIR/golden/.
//       SLOWCC_REGEN_GOLDEN=1 rewrites the goldens after an
//       intentional behavior change.
//
// Exit codes: 0 ok, 1 check/run failure, 2 usage or bad spec.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flag_parse.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"
#include "spec/compiler.hpp"
#include "spec/scenario_spec.hpp"

using namespace slowcc;

namespace {

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s --list DIR | --run FILE | --check DIR [options]\n"
               "  --algorithm TOKEN   fill the \"$algorithm\" hole (--run)\n"
               "  --scale F           duration scale (default 1 for --run, "
               "0.05 for --check)\n"
               "  --seed N            trial seed (default 1)\n"
               "  --golden DIR        golden directory (default: "
               "<specs>/golden)\n",
               argv0);
  return code;
}

std::vector<std::string> spec_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".toml") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Digest of one run: folds the trace digest and the event count,
/// mirroring the golden-trace tests.
std::uint64_t run_digest(const spec::SpecRunResult& result) {
  std::uint64_t digest = sim::kFnvOffsetBasis;
  digest = sim::fnv1a_u64(digest, result.trace_digest);
  return sim::fnv1a_u64(digest, result.events);
}

int check_specs(const std::string& dir, const std::string& golden_dir,
                double scale, std::uint64_t seed) {
  const std::vector<std::string> files = spec_files(dir);
  if (files.empty()) {
    std::fprintf(stderr, "slowcc_spec: no *.toml specs under %s\n",
                 dir.c_str());
    return 2;
  }
  const bool regen = std::getenv("SLOWCC_REGEN_GOLDEN") != nullptr;
  if (regen) std::filesystem::create_directories(golden_dir);
  int failures = 0;
  for (const std::string& file : files) {
    const spec::ScenarioSpec scenario = spec::parse_scenario_file(file);
    const std::string stem = std::filesystem::path(file).stem().string();
    if (scenario.scenario.name != stem) {
      std::fprintf(stderr,
                   "slowcc_spec: FAIL %s: scenario name '%s' must match "
                   "the file stem '%s'\n",
                   file.c_str(), scenario.scenario.name.c_str(),
                   stem.c_str());
      ++failures;
      continue;
    }
    spec::SpecRunOptions opt;
    opt.seed = seed;
    opt.duration_scale = scale;
    const spec::SpecRunResult result = spec::run_scenario(scenario, opt);
    const std::uint64_t digest = run_digest(result);
    const std::string golden_path =
        golden_dir + "/" + scenario.scenario.name + ".txt";
    std::ostringstream rendered;
    rendered << "slowcc.golden.v1 " << scenario.scenario.name << " 0x"
             << std::hex << digest << "\n";
    if (regen) {
      std::ofstream out(golden_path);
      if (!out.good()) {
        std::fprintf(stderr, "slowcc_spec: cannot write %s\n",
                     golden_path.c_str());
        return 2;
      }
      out << rendered.str();
      std::printf("[regen] %s: %s", file.c_str(), rendered.str().c_str());
      continue;
    }
    std::ifstream in(golden_path);
    if (!in.good()) {
      std::fprintf(stderr,
                   "slowcc_spec: FAIL %s: missing golden %s — run with "
                   "SLOWCC_REGEN_GOLDEN=1 to create it\n",
                   file.c_str(), golden_path.c_str());
      ++failures;
      continue;
    }
    std::string header;
    std::string name;
    std::string digest_text;
    in >> header >> name >> digest_text;
    const std::uint64_t pinned =
        std::strtoull(digest_text.c_str(), nullptr, 16);
    if (header != "slowcc.golden.v1" || name != scenario.scenario.name ||
        pinned != digest) {
      std::fprintf(stderr,
                   "slowcc_spec: FAIL %s: digest %s != pinned %s — if the "
                   "behavior change is intentional, regenerate with "
                   "SLOWCC_REGEN_GOLDEN=1\n",
                   file.c_str(), rendered.str().c_str(),
                   (header + " " + name + " " + digest_text).c_str());
      ++failures;
      continue;
    }
    std::printf("ok %-28s 0x%llx (%llu events)\n",
                scenario.scenario.name.c_str(),
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(result.events));
  }
  if (failures > 0) {
    std::fprintf(stderr, "slowcc_spec: %d spec(s) failed the check\n",
                 failures);
    return 1;
  }
  std::printf("slowcc_spec: %zu spec(s) ok\n", files.size());
  return 0;
}

int list_specs(const std::string& dir) {
  for (const std::string& file : spec_files(dir)) {
    const spec::ScenarioSpec scenario = spec::parse_scenario_file(file);
    std::printf("%-28s %s\n", scenario.scenario.name.c_str(),
                scenario.scenario.description.c_str());
  }
  return 0;
}

int run_spec(const std::string& file, const std::string& algorithm,
             double scale, std::uint64_t seed) {
  const spec::ScenarioSpec scenario = spec::parse_scenario_file(file);
  spec::SpecRunOptions opt;
  opt.algorithm = algorithm;
  opt.seed = seed;
  opt.duration_scale = scale;
  const spec::SpecRunResult result = spec::run_scenario(scenario, opt);
  std::printf("scenario   %s\n", scenario.scenario.name.c_str());
  std::printf("algorithm  %s\n",
              algorithm.empty() ? scenario.scenario.default_algorithm.c_str()
                                : algorithm.c_str());
  for (const auto& [name, value] : result.row.metrics) {
    std::printf("%-26s %g\n", name.c_str(), value);
  }
  std::printf("events     %llu\n",
              static_cast<unsigned long long>(result.events));
  std::printf("digest     0x%llx\n",
              static_cast<unsigned long long>(result.trace_digest));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string check_dir;
  std::string list_dir;
  std::string run_file;
  std::string golden_dir;
  std::string algorithm;
  double scale = -1.0;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "slowcc_spec: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto bad_value = [&](const char* expected) {
      std::fprintf(stderr, "slowcc_spec: %s expects %s: '%s'\n",
                   arg.c_str(), expected, argv[i]);
      return 2;
    };
    if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else if (arg == "--check") {
      check_dir = value();
    } else if (arg == "--list") {
      list_dir = value();
    } else if (arg == "--run") {
      run_file = value();
    } else if (arg == "--golden") {
      golden_dir = value();
    } else if (arg == "--algorithm") {
      algorithm = value();
    } else if (arg == "--scale") {
      if (!tools::parse_non_negative(value(), &scale) || scale == 0.0) {
        return bad_value("a finite number > 0");
      }
    } else if (arg == "--seed") {
      if (!tools::parse_count(value(), &seed)) {
        return bad_value("a non-negative integer within 64 bits");
      }
    } else {
      std::fprintf(stderr, "slowcc_spec: unknown option %s\n", arg.c_str());
      return usage(argv[0], 2);
    }
  }

  const int modes = (check_dir.empty() ? 0 : 1) + (list_dir.empty() ? 0 : 1) +
                    (run_file.empty() ? 0 : 1);
  if (modes != 1) return usage(argv[0], 2);

  try {
    if (!check_dir.empty()) {
      if (golden_dir.empty()) golden_dir = check_dir + "/golden";
      return check_specs(check_dir, golden_dir, scale < 0 ? 0.05 : scale,
                         seed);
    }
    if (!list_dir.empty()) return list_specs(list_dir);
    return run_spec(run_file, algorithm, scale < 0 ? 1.0 : scale, seed);
  } catch (const sim::SimError& ex) {
    std::fprintf(stderr, "slowcc_spec: %s\n", ex.what());
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "slowcc_spec: %s\n", ex.what());
    return 2;
  }
}
