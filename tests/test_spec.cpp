// Scenario-spec parser/validator edge cases: malformed TOML, unknown
// keys and sections, duplicate sections, out-of-range values — every
// rejection must carry the kBadSpec code and a file:line that points
// at the offending key. A ddmin-style reducer then shrinks a broken
// spec and checks the minimal repro still gets the same pinpoint
// diagnostic. Finally, every committed file under specs/ must parse.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "sim/error.hpp"
#include "spec/scenario_spec.hpp"
#include "spec/toml.hpp"

namespace slowcc::spec {
namespace {

/// what() of the SimError raised by parsing `text`, or "" on success.
std::string error_of(const std::string& text) {
  try {
    (void)parse_scenario_spec(parse_toml(text, "test.toml"));
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec) << e.what();
    return e.what();
  }
  return "";
}

/// A minimal valid spec the edge cases below mutate.
constexpr const char* kValid = R"(
[scenario]
name = "edge_case"
measure_s = 10

[[flows]]
count = 2
)";

TEST(SpecParser, MinimalSpecParses) { EXPECT_EQ(error_of(kValid), ""); }

TEST(SpecParser, MalformedTomlIsRejectedWithFileAndLine) {
  // Unterminated string (line 3 of the document).
  EXPECT_NE(error_of("[scenario]\nname = \"x\nmeasure_s = 1\n")
                .find("test.toml:2"),
            std::string::npos);
  // Unclosed table header.
  EXPECT_NE(error_of("[scenario\nname = \"x\"\n").find("test.toml:1"),
            std::string::npos);
  // A key with no value.
  EXPECT_NE(error_of("[scenario]\nname =\n").find("test.toml:2"),
            std::string::npos);
  // Trailing garbage after a value.
  EXPECT_NE(error_of("[scenario]\nmeasure_s = 1 oops\n")
                .find("test.toml:2"),
            std::string::npos);
  // Nested arrays are out of the subset.
  EXPECT_NE(error_of("[scenario]\nx = [[1], [2]]\n").find("test.toml:2"),
            std::string::npos);
}

TEST(SpecParser, ErrorsCarryTheBadSpecCode) {
  const std::string msg = error_of("[scenario\n");
  EXPECT_NE(msg.find("[bad-spec]"), std::string::npos) << msg;
}

TEST(SpecParser, UnknownKeyReportsItsOwnLine) {
  const std::string text =
      "[scenario]\n"            // line 1
      "name = \"x\"\n"          // line 2
      "measure_s = 10\n"        // line 3
      "bogus_knob = 3\n"        // line 4 <- offending key
      "\n"
      "[[flows]]\n"
      "count = 1\n";
  const std::string msg = error_of(text);
  EXPECT_NE(msg.find("unknown key 'bogus_knob'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.toml:4"), std::string::npos) << msg;
}

// [limits] holds budgets only: `weight` is an unknown key there, and
// the error names it.
TEST(SpecParser, LimitsWeightIsAnUnknownKey) {
  const std::string msg =
      error_of(std::string(kValid) + "[limits]\nweight = 2\n");
  EXPECT_NE(msg.find("unknown key 'weight' in [limits]"), std::string::npos)
      << msg;
  EXPECT_EQ(error_of(std::string(kValid) + "[limits]\nmax_events = 10\n"),
            "");
}

TEST(SpecParser, UnknownSectionIsRejectedByName) {
  const std::string msg = error_of(std::string(kValid) + "[faultz]\nx = 1\n");
  EXPECT_NE(msg.find("unknown section [faultz]"), std::string::npos) << msg;
}

TEST(SpecParser, DuplicateSectionsAreRejected) {
  const std::string msg = error_of(std::string(kValid) +
                                   "[topology]\nbottleneck_mbps = 10\n"
                                   "[topology]\nqueue = \"red\"\n");
  EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
}

TEST(SpecParser, DuplicateKeysInOneSectionAreRejected) {
  const std::string msg =
      error_of("[scenario]\nname = \"x\"\nname = \"y\"\nmeasure_s = 1\n");
  EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.toml:3"), std::string::npos) << msg;
}

TEST(SpecParser, MixingTableAndArrayTableIsRejected) {
  const std::string msg =
      error_of(std::string(kValid) + "[traffic]\nkind = \"cbr\"\n");
  // [traffic] is only known as [[traffic]]; the typo must fail loudly.
  EXPECT_NE(msg.find("[traffic]"), std::string::npos) << msg;
}

TEST(SpecParser, OutOfRangeValuesAreValidationErrors) {
  EXPECT_NE(error_of("[scenario]\nname = \"x\"\nmeasure_s = -5\n"
                     "[[flows]]\ncount = 1\n")
                .find("must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of(std::string(kValid) +
                     "[topology]\nbottleneck_mbps = 0\n")
                .find("must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of(std::string(kValid) +
                     "[[traffic]]\nkind = \"media\"\nrungs_mbps = [1.0]\n"
                     "up_fraction = 1.5\n")
                .find("must be in [0, 1]"),
            std::string::npos);
  EXPECT_NE(error_of("[scenario]\nname = \"x\"\nmeasure_s = 10\n"
                     "[[flows]]\ncount = 2.5\n")
                .find("non-negative integer"),
            std::string::npos);
}

TEST(SpecParser, UndeclaredParamReferenceIsRejected) {
  const std::string msg = error_of(
      "[scenario]\nname = \"x\"\nmeasure_s = 10\n"
      "[[flows]]\ncount = \"$nope\"\n");
  EXPECT_NE(msg.find("\"$nope\" does not name a [params] entry"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("test.toml:5"), std::string::npos) << msg;
}

TEST(SpecParser, ReservedAlgorithmParamIsRejected) {
  const std::string msg = error_of(
      "[scenario]\nname = \"x\"\nmeasure_s = 10\n"
      "[params]\nalgorithm = 1\n"
      "[[flows]]\ncount = 1\n");
  EXPECT_NE(msg.find("reserved"), std::string::npos) << msg;
}

TEST(SpecParser, SpecsWithoutFlowsAreRejected) {
  const std::string msg =
      error_of("[scenario]\nname = \"x\"\nmeasure_s = 10\n");
  EXPECT_NE(msg.find("no [[flows]]"), std::string::npos) << msg;
}

TEST(SpecParser, UnsupportedVersionIsRejected) {
  const std::string msg = error_of(
      "[scenario]\nname = \"x\"\nversion = 2\nmeasure_s = 10\n"
      "[[flows]]\ncount = 1\n");
  EXPECT_NE(msg.find("unsupported spec version 2"), std::string::npos) << msg;
}

// ---- ddmin-style minimal repro -------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Line-granular ddmin: repeatedly delete any single line whose
/// removal preserves the target diagnostic, to a 1-minimal fixpoint.
std::vector<std::string> ddmin_lines(std::vector<std::string> lines,
                                     const std::string& needle) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::vector<std::string> candidate = lines;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (error_of(join_lines(candidate)).find(needle) !=
          std::string::npos) {
        lines = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return lines;
}

TEST(SpecParser, DdminShrinksToAMinimalReproWithAccurateLine) {
  // A realistic ~30-line spec with one bad value buried in the middle.
  const std::string broken = R"([scenario]
name = "ddmin_case"
description = "bigger spec with one poisoned key"
version = 1
warmup_s = 5
measure_s = 40

[params]
jitter_ms = 8

[topology]
bottleneck_mbps = 10
bottleneck_delay_ms = 23
queue = "red"

[[flows]]
algorithm = "$algorithm"
count = 4
start_s = 0

[[traffic]]
kind = "cbr"
rate_mbps = -3

[[faults]]
kind = "delay_jitter"
at_s = 5
end_s = 45
interval_s = 0.25
amplitude_ms = "$jitter_ms"

[metrics]
throughput = true
)";
  // Pin the full diagnostic, not just the key name — a looser needle
  // would let the reducer drift to the "unknown key 'rate_mbps'"
  // error that appears once [[traffic]] itself is deleted.
  const std::string needle = "key 'rate_mbps': value -3.000000 must be > 0";
  ASSERT_NE(error_of(broken).find(needle), std::string::npos);

  const std::vector<std::string> minimal =
      ddmin_lines(split_lines(broken), needle);
  const auto nonblank = static_cast<std::size_t>(std::accumulate(
      minimal.begin(), minimal.end(), 0, [](int acc, const std::string& l) {
        return acc + (l.empty() ? 0 : 1);
      }));
  // [scenario]/name/measure_s + [[traffic]]/kind/rate_mbps is all the
  // failure needs; the reducer must get down to that neighborhood.
  EXPECT_LE(nonblank, 6u) << join_lines(minimal);

  // The diagnostic must still pinpoint the offending key's 1-based
  // line in the *minimized* document.
  const std::string msg = error_of(join_lines(minimal));
  std::size_t bad_line = 0;
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    if (minimal[i].find("rate_mbps") != std::string::npos) bad_line = i + 1;
  }
  ASSERT_NE(bad_line, 0u);
  EXPECT_NE(msg.find("test.toml:" + std::to_string(bad_line)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("must be > 0"), std::string::npos) << msg;
}

// ---- the committed library ----------------------------------------

TEST(SpecLibrary, EveryCommittedSpecParsesAndMatchesItsFileStem) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SLOWCC_SPECS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".toml") {
      files.push_back(entry.path().string());
    }
  }
  EXPECT_GE(files.size(), 10u) << "specs/ library shrank below the floor";
  for (const std::string& file : files) {
    const ScenarioSpec spec = parse_scenario_file(file);
    EXPECT_EQ(spec.scenario.name,
              std::filesystem::path(file).stem().string());
    EXPECT_FALSE(spec.scenario.description.empty()) << file;
    EXPECT_TRUE(spec.uses_algorithm_hole())
        << file << " pins every algorithm; sweeps over --algorithms "
        << "would silently not vary anything";
  }
}

}  // namespace
}  // namespace slowcc::spec
