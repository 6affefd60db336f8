// Scenario-spec parser/validator edge cases: malformed TOML, unknown
// keys and sections, duplicate sections, out-of-range values — every
// rejection must carry the kBadSpec code and a file:line that points
// at the offending key. A ddmin-style reducer then shrinks a broken
// spec and checks the minimal repro still gets the same pinpoint
// diagnostic. Finally, every committed file under specs/ must parse,
// and a copy of its IR must outlive the parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "spec/compiler.hpp"
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

// ---- every diagnostic, word for word --------------------------------

/// One input per rejection site in toml.cpp and scenario_spec.cpp, with
/// the exact message it must produce. A parser change that alters any
/// wording, line number or check order shows up here by row.
struct Diagnostic {
  const char* text;
  const char* want;  // detail after "[bad-spec] spec: "
};

// A valid [scenario] (lines 1-3) and [[flows]] (lines 4-5) to build on.
#define SCN "[scenario]\nname = \"x\"\nmeasure_s = 10\n"
#define FLW "[[flows]]\ncount = 1\n"

constexpr Diagnostic kDiagnostics[] = {
    // toml.cpp: values
    {"[scenario]\nname = \"abc\n", "test.toml:2: unterminated string"},
    {"[scenario]\nname = \"abc\\\n", "test.toml:2: unterminated string escape"},
    {"[scenario]\nname = \"a\\q\"\n",
     "test.toml:2: unsupported string escape '\\q'"},
    {"[scenario]\nx = ,\n", "test.toml:2: expected a value"},
    {"[scenario]\nx = abc\n",
     "test.toml:2: unrecognized value 'abc' (expected integer, float, bool, "
     "\"string\", or [array])"},
    {"[scenario]\nx = [1,\n", "test.toml:2: unterminated array"},
    {"[scenario]\nx = [1\n", "test.toml:2: unterminated array"},
    {"[scenario]\nx = [[1]]\n",
     "test.toml:2: nested arrays are not supported in scenario specs"},
    {"[scenario]\nx = [1 2]\n", "test.toml:2: expected ',' or ']' in array"},
    {"[scenario]\nx =\n", "test.toml:2: expected a value after '='"},
    // toml.cpp: table headers
    {"[]\n", "test.toml:1: empty table name"},
    {"[a.b]\n",
     "test.toml:1: dotted table name 'a.b' is not supported (use flat "
     "[tables])"},
    {"[a$]\n", "test.toml:1: invalid character '$' in table name 'a$'"},
    {"[scenario\n", "test.toml:1: malformed table header '[scenario'"},
    {"[x]\n[[x]]\n", "test.toml:2: table 'x' declared both as [x] and [[x]]"},
    {"[x]\n[x]\n", "test.toml:2: duplicate table [x] (first at line 1)"},
    // toml.cpp: key lines
    {"[scenario]\ngarbage\n",
     "test.toml:2: expected 'key = value' or a [table] header, got "
     "'garbage'"},
    {"[scenario]\n= 1\n", "test.toml:2: missing key before '='"},
    {"[scenario]\na.b = 1\n", "test.toml:2: dotted key 'a.b' is not supported"},
    {"[scenario]\na$ = 1\n", "test.toml:2: invalid character '$' in key 'a$'"},
    {"x = 1\n", "test.toml:1: key 'x' appears before any [table] header"},
    {"[scenario]\nx = 1\nx = 2\n",
     "test.toml:3: duplicate key 'x' in [scenario]"},
    {"[scenario]\nx = 1 2\n",
     "test.toml:2: trailing garbage after value for key 'x'"},
    // scenario_spec.cpp: typed reads
    {SCN "[[flows]]\ncount = \"$Bad\"\n",
     "test.toml:5: key 'count': malformed parameter reference \"$Bad\""},
    {SCN "[[flows]]\ncount = true\n",
     "test.toml:5: key 'count' must be a number or a \"$param\" reference"},
    {"[scenario]\nname = 3\nmeasure_s = 10\n" FLW,
     "test.toml:2: key 'name' must be a string"},
    {SCN "[[flows]]\nslow_start = 1\n",
     "test.toml:5: key 'slow_start' must be true or false"},
    {"[scenario]\nname = \"x\"\nversion = 1.5\nmeasure_s = 10\n" FLW,
     "test.toml:3: key 'version' must be an integer"},
    {SCN "[[flows]]\nbogus = 1\n", "test.toml:5: unknown key 'bogus' in [flows]"},
    // [scenario]
    {FLW, "test.toml:1: missing required [scenario] section"},
    {"[scenario]\nname = \"Bad\"\nmeasure_s = 10\n" FLW,
     "test.toml:1: key 'name': scenario name 'Bad' must be a non-empty "
     "[a-z0-9_] identifier"},
    {"[scenario]\nname = \"x\"\nversion = 2\nmeasure_s = 10\n" FLW,
     "test.toml:1: key 'version': unsupported spec version 2 (this build "
     "reads 1)"},
    {SCN "algorithm = \"$a\"\n" FLW,
     "test.toml:1: key 'algorithm': default algorithm must be a literal "
     "token (the \"$algorithm\" hole lives in [[flows]])"},
    {"[scenario]\nname = \"x\"\n" FLW,
     "test.toml:1: key 'measure_s': [scenario] must set a measurement "
     "window"},
    // [params], [topology]
    {SCN "[params]\np = \"a\"\n" FLW,
     "test.toml:5: key 'p': [params] declares numeric defaults only"},
    {SCN "[params]\nalgorithm = 1\n" FLW,
     "test.toml:5: key 'algorithm': reserved (the \"$algorithm\" hole is "
     "filled by --algorithms, not [params])"},
    {SCN "[topology]\nqueue = \"fifo\"\n" FLW,
     "test.toml:4: key 'queue': expected \"red\" or \"droptail\", got "
     "\"fifo\""},
    // [[flows]]
    {SCN "[[flows]]\nalgorithm = \"\"\n",
     "test.toml:4: key 'algorithm': empty algorithm token"},
    {SCN "[[flows]]\nalgorithm = \"$x\"\n",
     "test.toml:4: key 'algorithm': the only reference allowed here is "
     "\"$algorithm\", got \"$x\""},
    {SCN "[[flows]]\ndirection = \"up\"\n",
     "test.toml:4: key 'direction': expected \"forward\" or \"reverse\", got "
     "\"up\""},
    // [[traffic]]
    {SCN FLW "[[traffic]]\nkind = \"x\"\n",
     "test.toml:6: key 'kind': expected cbr | onoff | flash_crowd | media, "
     "got \"x\""},
    {SCN FLW "[[traffic]]\nkind = \"cbr\"\n",
     "test.toml:6: key 'rate_mbps': cbr traffic needs a rate"},
    {SCN FLW "[[traffic]]\nkind = \"onoff\"\n",
     "test.toml:6: key 'rate_mbps': onoff traffic needs a peak rate"},
    {SCN FLW "[[traffic]]\nkind = \"onoff\"\nrate_mbps = 1\nshape = \"sine\"\n",
     "test.toml:6: key 'shape': expected square | sawtooth | "
     "reverse_sawtooth, got \"sine\""},
    {SCN FLW "[[traffic]]\nkind = \"onoff\"\nrate_mbps = 1\non_s = 1\n",
     "test.toml:6: onoff traffic needs both 'on_s' and 'off_s'"},
    {SCN FLW "[[traffic]]\nkind = \"media\"\n",
     "test.toml:6: key 'rungs_mbps': media traffic needs a non-empty rate "
     "ladder array"},
    {SCN FLW "[[traffic]]\nkind = \"media\"\nrungs_mbps = [1, true]\n",
     "test.toml:8: key 'rungs_mbps': ladder entries must be numbers or "
     "\"$param\" references"},
    // [[faults]]
    {SCN FLW "[[faults]]\nkind = \"blackout\"\nlink = \"side\"\n",
     "test.toml:6: key 'link': expected \"bottleneck\" or \"reverse\", got "
     "\"side\""},
    {SCN FLW "[[faults]]\nkind = \"blackout\"\n",
     "test.toml:6: key 'duration_s': blackout needs a length"},
    {SCN FLW "[[faults]]\nkind = \"flap\"\n",
     "test.toml:6: flap needs both 'down_s' and 'up_s'"},
    {SCN FLW "[[faults]]\nkind = \"bandwidth_oscillation\"\n",
     "test.toml:6: bandwidth_oscillation needs 'period_s', 'high_mbps', and "
     "'low_mbps'"},
    {SCN FLW "[[faults]]\nkind = \"delay_jitter\"\n",
     "test.toml:6: delay_jitter needs 'end_s', 'interval_s', and "
     "'amplitude_ms'"},
    {SCN FLW "[[faults]]\nkind = \"delay_step\"\n",
     "test.toml:6: key 'delay_ms': delay_step needs the new delay"},
    {SCN FLW "[[faults]]\nkind = \"retry_stall\"\n",
     "test.toml:6: retry_stall needs 'period_s', 'stall_s', and "
     "'extra_delay_ms'"},
    {SCN FLW "[[faults]]\nkind = \"x\"\n",
     "test.toml:6: key 'kind': expected blackout | flap | "
     "bandwidth_oscillation | delay_jitter | delay_step | retry_stall | "
     "impairment, got \"x\""},
    // [limits], references, ranges, structure
    {SCN FLW "[limits]\nmax_events = -1\n",
     "test.toml:6: [limits] budgets must be >= 0 (0 = unset)"},
    {SCN "[[flows]]\ncount = \"$nope\"\n",
     "test.toml:5: key 'count': reference \"$nope\" does not name a [params] "
     "entry"},
    {"[scenario]\nname = \"x\"\nmeasure_s = inf\n" FLW,
     "test.toml:3: key 'measure_s': value inf must be finite"},
    {"[scenario]\nname = \"x\"\nmeasure_s = -5\n" FLW,
     "test.toml:3: key 'measure_s': value -5.000000 must be > 0"},
    {SCN "warmup_s = -1\n" FLW,
     "test.toml:4: key 'warmup_s': value -1.000000 must be >= 0"},
    {SCN FLW "[[faults]]\nkind = \"impairment\"\nloss_bad = 2\n",
     "test.toml:8: key 'loss_bad': value 2.000000 must be in [0, 1]"},
    {SCN "[[flows]]\npacket_size = 0\n",
     "test.toml:5: key 'packet_size': value 0.000000 must be a positive "
     "integer"},
    {SCN "[[flows]]\ncount = 2.5\n",
     "test.toml:5: key 'count': value 2.500000 must be a non-negative "
     "integer"},
    {SCN, "test.toml:1: spec defines no [[flows]] — nothing to measure"},
    {SCN FLW "[faultz]\n", "test.toml:6: unknown section [faultz]"},
    {SCN FLW "[[fault]]\n", "test.toml:6: unknown section [[fault]]"},
};

#undef SCN
#undef FLW

TEST(SpecDiagnostics, EveryRejectionKeepsItsExactMessage) {
  for (const Diagnostic& row : kDiagnostics) {
    SCOPED_TRACE(row.text);
    EXPECT_EQ(error_of(row.text), std::string("[bad-spec] spec: ") + row.want);
  }
}

TEST(SpecDiagnostics, UnreadableFileNamesItsPath) {
  const std::string path = "no/such/dir/missing.toml";
  try {
    (void)parse_scenario_file(path);
    FAIL() << "a missing file parsed";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadSpec);
    EXPECT_EQ(std::string(e.what()),
              "[bad-spec] spec: " + path + ": cannot open spec file");
  }
}

// An integer literal must fit in 64 bits; strtoll would clamp it.
TEST(SpecParser, IntegerLiteralsPast64BitsAreRejected) {
  const std::string head = "[scenario]\nname = \"x\"\nmeasure_s = 10\n";
  EXPECT_EQ(error_of(head + "[[flows]]\ncount = 9223372036854775808\n"),
            "[bad-spec] spec: test.toml:5: integer '9223372036854775808' "
            "does not fit in 64 bits");
  EXPECT_EQ(error_of(head + "[params]\nn = -9223372036854775809\n"
                            "[[flows]]\ncount = \"$n\"\n"),
            "[bad-spec] spec: test.toml:5: integer '-9223372036854775809' "
            "does not fit in 64 bits");
  EXPECT_EQ(error_of(head + "[limits]\nmax_events = 9223372036854775807\n"
                            "[[flows]]\ncount = 1\n"),
            "");
}

// A float literal must be a finite-range double (1e999 no longer turns
// into inf), and a leading '+' is accepted on either kind.
TEST(SpecParser, FloatLiteralsOutOfRangeAreRejected) {
  const std::string head = "[scenario]\nname = \"x\"\nmeasure_s = 10\n";
  EXPECT_EQ(error_of(head + "[[flows]]\nstart_s = 1e999\n"),
            "[bad-spec] spec: test.toml:5: float '1e999' is out of range");
  EXPECT_EQ(error_of(head + "[[flows]]\ncount = +2\nstart_s = +0.5\n"), "");
  EXPECT_EQ(error_of(head + "[[flows]]\ncount = +-2\n"),
            "[bad-spec] spec: test.toml:5: unrecognized value '+-2' (expected "
            "integer, float, bool, \"string\", or [array])");
}

// Integer fields are built as ints: a literal past INT_MAX is rejected
// at its line, and INT_MAX itself still validates.
TEST(SpecParser, IntegerFieldsPastIntAreRejected) {
  const std::string head = "[scenario]\nname = \"x\"\nmeasure_s = 10\n";
  EXPECT_EQ(error_of(head + "[[flows]]\ncount = 3000000000\n"),
            "[bad-spec] spec: test.toml:5: key 'count': value "
            "3000000000.000000 must be <= 2147483647");
  EXPECT_EQ(error_of(head + "[[flows]]\npacket_size = 2147483648\n"),
            "[bad-spec] spec: test.toml:5: key 'packet_size': value "
            "2147483648.000000 must be <= 2147483647");
  EXPECT_EQ(error_of(head + "[[flows]]\ncount = 2147483647\n"), "");
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

// The TOML layer hands out views of its document's buffer; the IR must
// own everything it keeps. Every spec's IR is copied, the original and
// its document are destroyed, and the copies run only after the whole
// library has been parsed (so freed buffers are reused) — each must
// still reproduce its golden digest at `slowcc_spec --check`'s scale.
TEST(SpecLibrary, CopiedSpecsOutliveTheirDocumentAndMatchTheGoldens) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SLOWCC_SPECS_DIR)) {
    if (entry.path().extension() == ".toml") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u);
  std::vector<ScenarioSpec> copies;
  for (const std::string& file : files) {
    auto doc = std::make_unique<TomlDoc>(parse_toml_file(file));
    auto original = std::make_unique<ScenarioSpec>(parse_scenario_spec(*doc));
    copies.push_back(*original);
    original.reset();
    doc.reset();
  }
  for (const ScenarioSpec& spec : copies) {
    SCOPED_TRACE(spec.source);
    SpecRunOptions opt;
    opt.seed = 1;
    opt.duration_scale = 0.05;
    const SpecRunResult result = run_scenario(spec, opt);
    const std::uint64_t digest = sim::fnv1a_u64(
        sim::fnv1a_u64(sim::kFnvOffsetBasis, result.trace_digest),
        result.events);
    std::ifstream golden(std::string(SLOWCC_SPECS_DIR) + "/golden/" +
                         spec.scenario.name + ".txt");
    std::string header;
    std::string name;
    std::string pinned;
    golden >> header >> name >> pinned;
    std::ostringstream want;
    want << "0x" << std::hex << digest;
    EXPECT_EQ(header, "slowcc.golden.v1");
    EXPECT_EQ(name, spec.scenario.name);
    EXPECT_EQ(pinned, want.str());
  }
}

}  // namespace
}  // namespace slowcc::spec
