// slowcc_lint rule-engine tests: one positive and one negative fixture
// per rule, run against small in-memory sources, plus suppression
// parsing and the text reporter. The fixtures use repo-shaped
// paths ("src/...", "tools/...") because rule scoping keys off them.

#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer/lexer.hpp"

namespace {

using slowcc::lint::Finding;
using slowcc::lint::SourceFile;

std::vector<Finding> lint_one(std::string path, std::string content) {
  return slowcc::lint::run({{std::move(path), std::move(content)}});
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintWallClock, FlagsClockReadsOutsideExemptPaths) {
  const auto findings = lint_one("src/net/foo.cpp", R"cpp(
#include <chrono>
void f() {
  auto t = std::chrono::steady_clock::now();
  long s = time(nullptr);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 2);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].line, 5);
}

TEST(LintWallClock, AllowsWatchdogExpAndMemberCalls) {
  const std::string clocky = R"cpp(
void f() { auto t = std::chrono::steady_clock::now(); }
)cpp";
  EXPECT_EQ(count_rule(lint_one("src/exp/parallel_runner.cpp", clocky),
                       "no-wall-clock"),
            0);
  // Nothing outside src/exp/ reads the wall clock, src/fault/ included.
  EXPECT_EQ(count_rule(lint_one("src/fault/watchdog.cpp", clocky),
                       "no-wall-clock"),
            1);
  // Member functions that happen to be called time() belong to someone
  // else's API; sim::Time construction is obviously fine too.
  const auto findings = lint_one("src/net/bar.cpp", R"cpp(
void g(Probe& p) {
  auto a = p.time();
  auto b = Sampler::time();
  sim::Time t = sim::Time::seconds(2.0);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 0);
}

TEST(LintRawRand, FlagsRandAndStdEngines) {
  const auto findings = lint_one("bench/foo.cpp", R"cpp(
int f() {
  std::mt19937 gen(42);
  return rand() % 7;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 2);
}

TEST(LintRawRand, AllowsSimRngAndCommentMentions) {
  const auto findings = lint_one("src/traffic/foo.cpp", R"cpp(
// rand() and std::mt19937 are banned; this comment must not trip it.
double f(slowcc::sim::Rng& rng) {
  const char* msg = "do not call rand() here";
  return rng.uniform() + static_cast<double>(sim::derive_seed(1, 2) % 3);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 0);
}

TEST(LintUnorderedIteration, FlagsRangeForOverUnorderedMember) {
  const auto findings = lint_one("src/net/table.cpp", R"cpp(
#include <unordered_map>
struct T {
  std::unordered_map<int, double> table_;
  double sum() const {
    double s = 0;
    for (const auto& [k, v] : table_) s += v;
    return s;
  }
};
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 1);
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintUnorderedIteration, SeesDeclarationsAcrossFilesInTheBatch) {
  // The symbol table is built from the whole batch: a member declared
  // unordered in a header is flagged when iterated in a .cpp.
  const std::vector<SourceFile> sources = {
      {"src/net/reg.hpp", R"cpp(
#pragma once
#include <unordered_set>
struct Reg { std::unordered_set<int> live_ids_; };
)cpp"},
      {"src/net/reg.cpp", R"cpp(
#include "net/reg.hpp"
int f(const Reg& r) {
  int n = 0;
  for (int id : r.live_ids_) n += id;
  return n;
}
)cpp"},
  };
  const auto findings = slowcc::lint::run(sources);
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 1);
}

TEST(LintUnorderedIteration, AllowsOrderedContainersAndSortedCopies) {
  const auto findings = lint_one("src/net/ok.cpp", R"cpp(
#include <map>
#include <unordered_map>
struct T {
  std::map<int, double> ordered_;
  std::unordered_map<int, double> table_;
  double sum() const {
    double s = 0;
    for (const auto& [k, v] : ordered_) s += v;
    for (const auto& [k, v] : sorted_view(table_)) s += v;  // call: ok
    return s;
  }
};
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 0);
}

TEST(LintErrorTaxonomy, FlagsAdHocThrowsUnderSrc) {
  const auto findings = lint_one("src/sim/foo.cpp", R"cpp(
void f(int x) {
  if (x < 0) throw std::runtime_error("negative");
}
)cpp");
  EXPECT_EQ(count_rule(findings, "error-taxonomy"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintErrorTaxonomy, AllowsSimErrorRethrowAndNonSrcPaths) {
  const auto findings = lint_one("src/sim/ok.cpp", R"cpp(
void f(int x) {
  if (x < 0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "f", "x must be >= 0");
  }
  try {
    g();
  } catch (...) {
    throw;
  }
  throw
      slowcc::sim::SimError(sim::SimErrc::kBadSchedule, "f", "split line");
}
)cpp");
  EXPECT_EQ(count_rule(findings, "error-taxonomy"), 0);
  // tools/ is outside the taxonomy's jurisdiction.
  const auto tool = lint_one("tools/cli.cpp", R"cpp(
void f() { throw std::runtime_error("cli-only"); }
)cpp");
  EXPECT_EQ(count_rule(tool, "error-taxonomy"), 0);
}

TEST(LintFloatTime, FlagsUnitlessTimeDoubles) {
  const auto findings = lint_one("src/metrics/foo.cpp", R"cpp(
void f() {
  double start_time = 0.0;
  double deadline = 1.5;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-float-time"), 2);
}

TEST(LintFloatTime, AllowsUnitSuffixesWallClocksAndFunctions) {
  const auto findings = lint_one("src/metrics/ok.cpp", R"cpp(
double stab_time(int x);
void f() {
  double stabilization_time_s = 0.0;
  double trial_wall_seconds = 30.0;
  double rate_bps = 1e6;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-float-time"), 0);
}

TEST(LintHeaderHygiene, FlagsMissingPragmaOnceAndUsingNamespace) {
  const auto findings = lint_one("src/net/bad.hpp", R"cpp(
#include <vector>
using namespace std;
)cpp");
  EXPECT_EQ(count_rule(findings, "header-hygiene"), 2);
}

TEST(LintHeaderHygiene, AcceptsCommentThenPragmaOnce) {
  const auto findings = lint_one("src/net/good.hpp", R"cpp(
// A documentation block may precede the guard.
#pragma once
#include <vector>
)cpp");
  EXPECT_EQ(count_rule(findings, "header-hygiene"), 0);
  // .cpp files are not headers.
  const auto cpp = lint_one("src/net/impl.cpp", "int x = 1;\n");
  EXPECT_EQ(count_rule(cpp, "header-hygiene"), 0);
}

TEST(LintStdFunctionHotPath, FlagsStdFunctionOnlyUnderSrcSim) {
  const std::string engine = R"cpp(
#pragma once
struct Entry {
  long at_ns;
  std::function<void()> cb;
};
)cpp";
  const auto findings = lint_one("src/sim/fancy_scheduler.hpp", engine);
  EXPECT_EQ(count_rule(findings, "no-std-function-hot-path"), 1);
  EXPECT_EQ(findings[0].line, 5);
  // v2 widened the scope to src/net/ — packet delivery is as hot as the
  // event loop. Paths outside both stay exempt.
  EXPECT_EQ(count_rule(lint_one("src/net/foo.hpp", engine),
                       "no-std-function-hot-path"),
            1);
  EXPECT_EQ(count_rule(lint_one("src/exp/foo.hpp", engine),
                       "no-std-function-hot-path"),
            0);
  EXPECT_EQ(count_rule(lint_one("tools/cli.cpp", engine),
                       "no-std-function-hot-path"),
            0);
}

TEST(LintStdFunctionHotPath, IgnoresCommentsAndIsSuppressible) {
  const auto clean = lint_one("src/sim/notes.cpp", R"cpp(
// std::function in a comment must not trip the rule.
int x = 1;
)cpp");
  EXPECT_EQ(count_rule(clean, "no-std-function-hot-path"), 0);

  const auto suppressed = lint_one("src/sim/api.hpp", R"cpp(
#pragma once
// slowcc-lint: allow(no-std-function-hot-path) API-boundary callback
using Callback = std::function<void()>;
)cpp");
  EXPECT_EQ(count_rule(suppressed, "no-std-function-hot-path"), 0);
  EXPECT_EQ(count_rule(suppressed, "bad-suppression"), 0);
}

TEST(LintStdFunctionHotPath, EnforcedRulesStayNonAdvisory) {
  const auto findings = lint_one("src/sim/mixed.cpp", R"cpp(
void f() {
  std::function<void()> cb;
  int r = rand();
}
)cpp");
  ASSERT_EQ(count_rule(findings, "no-std-function-hot-path"), 1);
  ASSERT_EQ(count_rule(findings, "no-raw-rand"), 1);
  // Every rule gates (DESIGN.md §8): the hot-path finding counts the
  // same as the PRNG one, so the fixture reports exactly both.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(LintUnguardedSharedWrite, FlagsRawWritePathsOnlyUnderSrcExp) {
  const std::string writer = R"cpp(
#include <fstream>
void dump(const char* path) {
  std::ofstream out(path);
  FILE* f = fopen(path, "w");
  int fd = ::open(path, 0);
}
)cpp";
  const auto findings = lint_one("src/exp/scratch_sink.cpp", writer);
  EXPECT_EQ(count_rule(findings, "no-unguarded-shared-write"), 3);
  // The same code outside the shared-checkpoint layer is fine.
  EXPECT_EQ(count_rule(lint_one("src/sim/dump.cpp", writer),
                       "no-unguarded-shared-write"),
            0);
  EXPECT_EQ(count_rule(lint_one("tools/report.cpp", writer),
                       "no-unguarded-shared-write"),
            0);
}

TEST(LintUnguardedSharedWrite, SkipsMemberOpenAndQualifiedCalls) {
  const auto findings = lint_one("src/exp/driver.cpp", R"cpp(
bool Checkpoint::open(const SweepSpec& spec) { return true; }
void drive(Checkpoint& cp, const SweepSpec& spec) {
  cp.open(spec);
  io::open(spec);
  std::ifstream in("journal.jsonl");
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unguarded-shared-write"), 0);
}

TEST(LintUnguardedSharedWrite, IsSuppressibleWithReason) {
  const auto findings = lint_one("src/exp/result_sink_fixture.cpp", R"cpp(
int stage(const char* path) {
  // slowcc-lint: allow(no-unguarded-shared-write) this IS the tmp+rename primitive
  return ::open(path, 0);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unguarded-shared-write"), 0);
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 0);
}

TEST(LintSuppression, TrailingAllowGuardsItsOwnLine) {
  const auto findings = lint_one("src/net/s1.cpp", R"cpp(
int f() {
  return rand();  // slowcc-lint: allow(no-raw-rand) fixture exercises libc
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 0);
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 0);
}

TEST(LintSuppression, StandaloneAllowGuardsTheNextLine) {
  const auto findings = lint_one("src/net/s2.cpp", R"cpp(
int f() {
  // slowcc-lint: allow(no-raw-rand) seeding comparison baseline
  return rand();
}
int g() {
  // The allow above must not leak this far down.
  return rand();
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 1);
}

TEST(LintSuppression, AllowFileCoversTheWholeFile) {
  const auto findings = lint_one("src/net/s3.cpp", R"cpp(
// slowcc-lint: allow-file(no-raw-rand) PRNG comparison harness
int f() { return rand(); }
int g() { return rand(); }
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 0);
}

TEST(LintSuppression, MissingReasonIsItselfAFinding) {
  const auto findings = lint_one("src/net/s4.cpp", R"cpp(
int f() {
  return rand();  // slowcc-lint: allow(no-raw-rand)
}
)cpp");
  // The malformed allow is reported AND does not suppress.
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 1);
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 1);
}

TEST(LintSuppression, UnknownRuleNameIsRejected) {
  const auto findings = lint_one("src/net/s5.cpp", R"cpp(
int f() {
  return rand();  // slowcc-lint: allow(no-such-rule) typo'd rule name
}
)cpp");
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 1);
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 1);
}

TEST(LintRules, RegistryKnowsEveryRule) {
  EXPECT_GE(slowcc::lint::all_rules().size(), 12u);
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-wall-clock"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("error-taxonomy"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-std-function-hot-path"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-unguarded-shared-write"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-unseeded-container-hash"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-iteration-order-leak"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-time-arith-overflow"));
  EXPECT_TRUE(slowcc::lint::is_known_rule("no-hot-path-alloc"));
  EXPECT_FALSE(slowcc::lint::is_known_rule("bad-suppression"));
  EXPECT_FALSE(slowcc::lint::is_known_rule(""));
}

struct RuleFixture {
  std::string rule;
  SourceFile source;
};

TEST(LintRules, EveryRuleHasAFiringFixture) {
  // One minimal violating source per rule. A rule added to all_rules()
  // without an entry here fails the test, so no rule can sit in the
  // registry without a fixture that proves it fires.
  const std::vector<RuleFixture> fixtures = {
      {"no-wall-clock",
       {"src/net/clock.cpp",
        "void f() { auto t = std::chrono::steady_clock::now(); }\n"}},
      {"no-raw-rand", {"src/net/jitter.cpp", "int f() { return rand(); }\n"}},
      {"no-unordered-iteration",
       {"src/net/table.cpp",
        "std::unordered_map<int, double> table;\n"
        "double sum() {\n"
        "  double s = 0;\n"
        "  for (const auto& [k, v] : table) s += v;\n"
        "  return s;\n"
        "}\n"}},
      {"no-iteration-order-leak",
       {"src/net/dump.cpp",
        "std::unordered_map<int, int> stats;\n"
        "void dump() {\n"
        "  for (const auto& kv : stats) std::cout << kv.second;\n"
        "}\n"}},
      {"no-unseeded-container-hash",
       {"src/net/hash.cpp", "std::unordered_map<Flow*, int> by_flow;\n"}},
      {"no-time-arith-overflow",
       {"src/sim/deadline.cpp",
        "long next_deadline(long pad) { return INT64_MAX + pad; }\n"}},
      {"error-taxonomy",
       {"src/net/fail.cpp",
        "void f() { throw std::runtime_error(\"nope\"); }\n"}},
      {"no-float-time",
       {"src/net/start.cpp", "void f() { double start_time = 3.0; }\n"}},
      {"header-hygiene", {"src/net/bare.hpp", "struct Bare {};\n"}},
      {"no-std-function-hot-path",
       {"src/sim/hot.cpp", "std::function<void()> pending_cb;\n"}},
      {"no-hot-path-alloc",
       {"src/net/queue.cpp",
        "class ScratchQueue {\n"
        " public:\n"
        "  void enqueue(int v) { slot_ = new int(v); }\n"
        "  int* slot_ = nullptr;\n"
        "};\n"}},
      {"no-unguarded-shared-write",
       {"src/exp/sink.cpp",
        "void dump(const char* path) { std::ofstream out(path); }\n"}},
  };
  for (const auto& rule : slowcc::lint::all_rules()) {
    const auto entry = std::find_if(
        fixtures.begin(), fixtures.end(),
        [&](const RuleFixture& f) { return f.rule == rule.name; });
    ASSERT_NE(entry, fixtures.end()) << "no fixture for rule " << rule.name;
    const auto findings = slowcc::lint::run({entry->source});
    EXPECT_GE(count_rule(findings, entry->rule), 1)
        << entry->rule << " did not fire on " << entry->source.path;
  }
  // And no fixture names a rule the registry does not know.
  for (const RuleFixture& fixture : fixtures) {
    EXPECT_TRUE(slowcc::lint::is_known_rule(fixture.rule)) << fixture.rule;
  }
}

TEST(LintText, ReporterPrintsFileLineRuleAndHint) {
  std::vector<Finding> findings = {
      {"src/x.cpp", 7, "no-wall-clock", "bad clock", "use sim::Time"}};
  std::ostringstream out;
  slowcc::lint::report_text(findings, out);
  EXPECT_NE(out.str().find("src/x.cpp:7: [no-wall-clock] bad clock"),
            std::string::npos);
  EXPECT_NE(out.str().find("hint: use sim::Time"), std::string::npos);
}

TEST(LintScope, SpecSubsystemPathsAreCoveredBySrcRules) {
  // src/spec/ joined the tree after the rules were written; the rules
  // scope by the src/ path prefix, so the new subsystem must be
  // covered with no carve-outs. One positive + one negative fixture
  // per rule class that matters for the spec compiler.
  EXPECT_EQ(count_rule(lint_one("src/spec/toml.cpp", R"cpp(
void f() { throw std::runtime_error("nope"); }
)cpp"),
                       "error-taxonomy"),
            1);
  EXPECT_EQ(count_rule(lint_one("src/spec/toml.cpp", R"cpp(
void f() { throw sim::SimError(sim::SimErrc::kBadSpec, "spec", "d"); }
)cpp"),
                       "error-taxonomy"),
            0);

  EXPECT_EQ(count_rule(lint_one("src/spec/compiler.cpp", R"cpp(
void f() { double start_time = 3.0; }
)cpp"),
                       "no-float-time"),
            1);
  EXPECT_EQ(count_rule(lint_one("src/spec/compiler.cpp", R"cpp(
void f() { double start_s = 3.0; }
)cpp"),
                       "no-float-time"),
            0);

  EXPECT_EQ(count_rule(lint_one("src/spec/compiler.cpp", R"cpp(
int f() { return rand() % 3; }
)cpp"),
                       "no-raw-rand"),
            1);
  EXPECT_EQ(count_rule(lint_one("src/spec/compiler.cpp", R"cpp(
double f(slowcc::sim::Rng& rng) { return rng.uniform(); }
)cpp"),
                       "no-raw-rand"),
            0);

  EXPECT_EQ(count_rule(lint_one("src/spec/scenario_spec.cpp", R"cpp(
#include <chrono>
void f() { auto t = std::chrono::steady_clock::now(); }
)cpp"),
                       "no-wall-clock"),
            1);
}

// ====================================================================
// v2 lexer unit tests — the token stream the rules run on.
// ====================================================================

namespace lex = slowcc::lint::lex;

bool has_ident(const lex::LexedSource& lx, const std::string& text) {
  return std::any_of(lx.tokens.begin(), lx.tokens.end(),
                     [&](const lex::Token& t) {
                       return t.kind == lex::TokKind::kIdent && t.text == text;
                     });
}

int count_kind(const lex::LexedSource& lx, lex::TokKind kind) {
  return static_cast<int>(
      std::count_if(lx.tokens.begin(), lx.tokens.end(),
                    [&](const lex::Token& t) { return t.kind == kind; }));
}

TEST(LintLexer, NormalizesDigraphsToPrimarySpelling) {
  const auto lx = lex::lex("int a<:3:> = <%1,2%>;\n");
  std::vector<std::string> puncts;
  for (const auto& t : lx.tokens) {
    if (t.kind == lex::TokKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "["), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "]"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "{"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "}"), puncts.end());
}

TEST(LintLexer, AdjacentStringLiteralsStayTwoTokens) {
  const auto lx = lex::lex("const char* s = \"a\" \"b\";\n");
  ASSERT_EQ(count_kind(lx, lex::TokKind::kString), 2);
  for (const auto& t : lx.tokens) {
    if (t.kind == lex::TokKind::kString) {
      // Rules match on `text`, which literals keep empty; the raw bytes
      // live in `literal`.
      EXPECT_TRUE(t.text.empty());
      EXPECT_TRUE(t.literal == "a" || t.literal == "b");
    }
  }
}

TEST(LintLexer, IfZeroRegionIsExcludedAndElseBranchIsLive) {
  const auto lx = lex::lex(
      "#if 0\n"
      "rand();\n"
      "#else\n"
      "int live = 1;\n"
      "#endif\n"
      "#if 0\n"
      "#if 0\n"
      "nested();\n"
      "#endif\n"
      "still_dead();\n"
      "#endif\n");
  EXPECT_FALSE(has_ident(lx, "rand"));
  EXPECT_FALSE(has_ident(lx, "nested"));
  EXPECT_FALSE(has_ident(lx, "still_dead"));
  EXPECT_TRUE(has_ident(lx, "live"));
}

TEST(LintLexer, MultiLineMacroBodyStaysInTheStream) {
  const auto lx = lex::lex(
      "#define JITTER() \\\n"
      "  rand()\n"
      "int x = JITTER();\n");
  bool saw_pp_rand = false;
  for (const auto& t : lx.tokens) {
    if (t.kind == lex::TokKind::kIdent && t.text == "rand" && t.pp) {
      saw_pp_rand = true;
      EXPECT_EQ(t.line, 2);  // physical line, after the splice
    }
  }
  EXPECT_TRUE(saw_pp_rand);
  // And the rule engine sees it: a rand() hidden in a macro is still a
  // finding under src/.
  const auto findings = lint_one("src/sim/macro.cpp",
                                 "#define JITTER() \\\n  rand()\n");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 1);
}

TEST(LintLexer, PpNumbersLexAsOneToken) {
  const auto lx = lex::lex("long n = 1'000'000; double d = 1e9;\n");
  EXPECT_EQ(count_kind(lx, lex::TokKind::kNumber), 2);
}

TEST(LintLexer, QuotedIncludeFeedsTheDirectiveList) {
  const auto lx = lex::lex("#include \"net/link.hpp\"\n#include <vector>\n");
  ASSERT_EQ(lx.directives.size(), 2u);
  EXPECT_EQ(lx.directives[0].include_target, "net/link.hpp");
  EXPECT_TRUE(lx.directives[0].quoted_include);
  EXPECT_FALSE(lx.directives[1].quoted_include);
}

// ====================================================================
// v1 masking-bug regressions — each of these was mis-lexed by the old
// per-line masking pass. The lexer handles splices and raw strings as
// translation phases, so these must stay fixed.
// ====================================================================

TEST(LintMaskingRegression, RawStringBodyWithDelimiterIsNotCode) {
  const auto findings = lint_one("src/net/raw.cpp", R"cpp(
const char* s = R"x(rand() time(nullptr) std::mt19937 gen;)x";
const char* t = u8R"(more rand() here)";
int live = 1;
)cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 0);
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 0);
}

TEST(LintMaskingRegression, IdentEndingInRIsNotARawStringPrefix) {
  // v1 treated `MARKER"(...` as a raw-string open and masked the rest
  // of the file; the rand() after it went unreported.
  const auto findings = lint_one("src/net/marker.cpp",
                                 "const char* s = MARKER\"(open\";\n"
                                 "int r = rand();\n");
  ASSERT_EQ(count_rule(findings, "no-raw-rand"), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintMaskingRegression, SplicedLineCommentKeepsCommenting) {
  // The backslash splice continues the line comment onto the next
  // physical line, so the rand() there is comment text — but the one
  // after the comment ends is real.
  const auto findings = lint_one("src/net/splice.cpp",
                                 "// banned calls: \\\n"
                                 "   rand() time(nullptr)\n"
                                 "int r = rand();\n");
  ASSERT_EQ(count_rule(findings, "no-raw-rand"), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 0);
}

TEST(LintMaskingRegression, SplicedStringLiteralKeepsBeingAString) {
  const auto findings = lint_one("src/net/strsplice.cpp",
                                 "const char* s = \"half \\\n"
                                 "rand() rest\";\n"
                                 "int live = 1;\n");
  EXPECT_EQ(count_rule(findings, "no-raw-rand"), 0);
}

TEST(LintMaskingRegression, SplicedIdentifierLexesAsOneIdentifier) {
  // ra\<newline>nd is one identifier after phase-2 splicing — v1 saw
  // two harmless fragments.
  const auto findings = lint_one("src/net/idsplice.cpp",
                                 "int f() { return ra\\\nnd() % 3; }\n");
  ASSERT_EQ(count_rule(findings, "no-raw-rand"), 1);
  EXPECT_EQ(findings[0].line, 1);
}

// ====================================================================
// Determinism family.
// ====================================================================

TEST(LintContainerHash, FlagsPointerKeyedUnorderedContainers) {
  const auto findings = lint_one("src/net/hash.cpp", R"cpp(
#include <unordered_map>
#include <unordered_set>
struct Flow {};
std::unordered_map<Flow*, int> by_flow;
std::unordered_set<const Flow*> live;
)cpp");
  ASSERT_EQ(count_rule(findings, "no-unseeded-container-hash"), 2);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintContainerHash, AllowsValueKeysAndCustomHashers) {
  const auto findings = lint_one("src/net/hash_ok.cpp", R"cpp(
#include <unordered_map>
#include <unordered_set>
struct Flow {};
struct FlowIdHash { unsigned operator()(const Flow* f) const; };
std::unordered_map<int, Flow*> by_id;                    // pointer VALUE: fine
std::unordered_map<Flow*, int, FlowIdHash> stable;       // custom hasher
std::unordered_set<Flow*, FlowIdHash> stable_set;
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unseeded-container-hash"), 0);
}

TEST(LintContainerHash, IsSuppressibleWithReason) {
  const auto findings = lint_one("src/net/hash_sup.cpp", R"cpp(
#include <unordered_map>
struct Flow {};
// slowcc-lint: allow(no-unseeded-container-hash) lookup-only, never iterated
std::unordered_map<Flow*, int> by_flow;
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unseeded-container-hash"), 0);
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 0);
}

TEST(LintIterationOrderLeak, FlagsUnorderedIterationFeedingOutput) {
  const auto findings = lint_one("src/metrics/dump.cpp", R"cpp(
#include <iostream>
#include <unordered_map>
struct T {
  std::unordered_map<int, int> stats_;
  void dump() const {
    for (const auto& kv : stats_) std::cout << kv.second;
  }
  long sum() const {
    long s = 0;
    for (const auto& kv : stats_) s += kv.second;
    return s;
  }
};
)cpp");
  // The leaking loop carries both rules; the accumulating loop only the
  // plain iteration rule.
  EXPECT_EQ(count_rule(findings, "no-iteration-order-leak"), 1);
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 2);
  for (const auto& f : findings) {
    if (f.rule == "no-iteration-order-leak") {
      EXPECT_EQ(f.line, 7);
    }
  }
}

TEST(LintIterationOrderLeak, FlagsAppendStyleLeaksToo) {
  const auto findings = lint_one("src/metrics/rows.cpp", R"cpp(
#include <unordered_map>
#include <vector>
std::unordered_map<int, int> stats;
void rows(std::vector<int>* out) {
  for (const auto& kv : stats) out->push_back(kv.second);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-iteration-order-leak"), 1);
}

TEST(LintIterationOrderLeak, BothRulesSuppressTogether) {
  const auto findings = lint_one("src/metrics/sup.cpp", R"cpp(
#include <iostream>
#include <unordered_map>
std::unordered_map<int, int> stats;
void dump() {
  // slowcc-lint: allow(no-unordered-iteration, no-iteration-order-leak) debug-only dump
  for (const auto& kv : stats) std::cout << kv.second;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 0);
  EXPECT_EQ(count_rule(findings, "no-iteration-order-leak"), 0);
  EXPECT_EQ(count_rule(findings, "bad-suppression"), 0);
}

TEST(LintTimeArithOverflow, FlagsArithmeticOnTimeSentinels) {
  const auto findings = lint_one("src/sim/deadline.cpp", R"cpp(
#include <cstdint>
long next_deadline(long pad) { return INT64_MAX + pad; }
sim::Time horizon(sim::Time dt) { return sim::Time::max() + dt; }
long scaled(long k) { return std::numeric_limits<int64_t>::max() * k; }
)cpp");
  EXPECT_EQ(count_rule(findings, "no-time-arith-overflow"), 3);
}

TEST(LintTimeArithOverflow, AllowsGuardedAndComparisonUses) {
  const auto findings = lint_one("src/sim/deadline_ok.cpp", R"cpp(
#include <cstdint>
#include <algorithm>
long capped(long a) { return std::min(INT64_MAX + 0L, a); }      // guarded
long pick(long a) { return a < INT64_MAX ? a + 1 : a; }          // ternary
bool at_horizon(long t) { return t == INT64_MAX; }               // compare
long whole = INT64_MAX;                                          // plain init
)cpp");
  EXPECT_EQ(count_rule(findings, "no-time-arith-overflow"), 0);
  // Outside src/ the sentinel arithmetic is tooling's business.
  const auto tool = lint_one("tools/report.cpp",
                             "long t = INT64_MAX + 1;\n");
  EXPECT_EQ(count_rule(tool, "no-time-arith-overflow"), 0);
}

// ====================================================================
// Hot-path family: call-table reachability from enqueue/deliver/pop.
// ====================================================================

TEST(LintHotPathAlloc, FlagsAllocationsReachableFromEnqueue) {
  const auto findings = lint_one("src/net/queue.cpp", R"cpp(
class ScratchQueue {
 public:
  void enqueue(int v) { slot_ = fill(v); }
 private:
  int* fill(int v) { return new int(v); }
  int* slot_ = nullptr;
};
int* cold_path() { return new int(0); }
)cpp");
  ASSERT_EQ(count_rule(findings, "no-hot-path-alloc"), 1);
  for (const auto& f : findings) {
    if (f.rule == "no-hot-path-alloc") {
      EXPECT_EQ(f.line, 6);  // the `new` in fill(), not cold_path()'s
      EXPECT_NE(f.message.find("enqueue"), std::string::npos);
    }
  }
}

// The event loop's pop is the third root. The fixture spells the real
// out-of-line definition so the root follows the class that owns it.
TEST(LintHotPathAlloc, FlagsAllocationsReachableFromEventQueuePop) {
  const auto findings = lint_one("src/sim/event_queue.cpp", R"cpp(
Callback EventQueue::pop(PoppedEvent* out) {
  settle();
  return take(out);
}
void EventQueue::settle() { due_.push_back(HeapEntry{}); }
void Stack::pop() { items_.push_back(0); }
)cpp");
  ASSERT_EQ(count_rule(findings, "no-hot-path-alloc"), 1);
  for (const auto& f : findings) {
    if (f.rule == "no-hot-path-alloc") {
      EXPECT_EQ(f.line, 6);  // settle()'s push_back, not Stack::pop's
      EXPECT_NE(f.message.find("EventQueue::pop"), std::string::npos);
    }
  }
}

// The lane fire is the fourth root: nearly every packet-level event
// runs through it. Only the Lane's own fire_head roots the walk.
TEST(LintHotPathAlloc, FlagsAllocationsReachableFromLaneFireHead) {
  const auto findings = lint_one("src/sim/lane.cpp", R"cpp(
void Lane::fire_head() {
  settle_head();
  fire_(ctx_, arg_);
}
void Lane::settle_head() { keys_.push_back(0); }
void Valve::fire_head() { log_.push_back(0); }
)cpp");
  ASSERT_EQ(count_rule(findings, "no-hot-path-alloc"), 1);
  for (const auto& f : findings) {
    if (f.rule == "no-hot-path-alloc") {
      EXPECT_EQ(f.line, 6);  // settle_head()'s push_back, not Valve's
      EXPECT_NE(f.message.find("Lane::fire_head"), std::string::npos);
    }
  }
}

// The lane fires its callback through a function pointer; the walk
// follows every function whose address reaches acquire_lane.
TEST(LintHotPathAlloc, FollowsTheLaneFireIntoAcquiredCallbacks) {
  const auto findings = lint_one("src/net/pipe.cpp", R"cpp(
void Lane::fire_head() { fire_(ctx_, arg_); }
void Pipe::arm(Simulator& sim) {
  tx_ = &sim.acquire_lane(d_, &Pipe::on_sent);
  rx_ = &sim.acquire_lane(d_, &on_arrived);
}
void Pipe::on_sent(void* ctx, int arg) { log_.push_back(arg); }
void on_arrived(void* ctx, int arg) { seen_.push_back(arg); }
void Pipe::cold(int arg) { log_.push_back(arg); }
)cpp");
  ASSERT_EQ(count_rule(findings, "no-hot-path-alloc"), 2);
  std::vector<int> lines;
  for (const auto& f : findings) {
    if (f.rule == "no-hot-path-alloc") {
      lines.push_back(f.line);
      EXPECT_NE(f.message.find("Lane::fire_head"), std::string::npos);
    }
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{7, 8}));  // not cold()'s push_back
}

TEST(LintHotPathAlloc, SeesCallEdgesAcrossFilesInTheBatch) {
  const std::vector<SourceFile> sources = {
      {"src/net/q.cpp", R"cpp(
class PacketQueue {
 public:
  void enqueue(int v) { log_drop(v); }
};
)cpp"},
      {"src/net/log.cpp", R"cpp(
#include <vector>
std::vector<int> dropped;
void log_drop(int v) { dropped.push_back(v); }
)cpp"},
  };
  const auto findings = slowcc::lint::run(sources);
  ASSERT_EQ(count_rule(findings, "no-hot-path-alloc"), 1);
  for (const auto& f : findings) {
    if (f.rule == "no-hot-path-alloc") {
      EXPECT_EQ(f.file, "src/net/log.cpp");
      EXPECT_NE(f.message.find("push_back"), std::string::npos);
    }
  }
}

TEST(LintHotPathAlloc, RootsOnlyComeFromSrc) {
  const std::string queue = R"cpp(
class ScratchQueue {
 public:
  void enqueue(int v) { slot_ = new int(v); }
 private:
  int* slot_ = nullptr;
};
)cpp";
  EXPECT_EQ(count_rule(lint_one("tools/fixture.cpp", queue),
                       "no-hot-path-alloc"),
            0);
}

// ====================================================================
// Include graph: cycle detection feeds header-hygiene.
// ====================================================================

TEST(LintIncludeGraph, ReportsQuotedIncludeCycles) {
  const std::vector<SourceFile> sources = {
      {"src/net/a.hpp",
       "#pragma once\n#include \"net/b.hpp\"\nstruct A {};\n"},
      {"src/net/b.hpp",
       "#pragma once\n#include \"net/a.hpp\"\nstruct B {};\n"},
  };
  const auto findings = slowcc::lint::run(sources);
  ASSERT_EQ(count_rule(findings, "header-hygiene"), 1);
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/net/a.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/net/b.hpp"), std::string::npos);
}

TEST(LintIncludeGraph, AcyclicIncludesAreClean) {
  const std::vector<SourceFile> sources = {
      {"src/net/top.hpp",
       "#pragma once\n#include \"net/base.hpp\"\nstruct T {};\n"},
      {"src/net/base.hpp", "#pragma once\nstruct Base {};\n"},
  };
  EXPECT_EQ(count_rule(slowcc::lint::run(sources), "header-hygiene"), 0);
}

}  // namespace
