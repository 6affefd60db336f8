#pragma once

// slowcc-lint — a dependency-free static-analysis pass that enforces the
// project's determinism, resource-pairing, and error-taxonomy
// invariants (see DESIGN.md §8).
//
// v2 architecture (tools/lint/):
//   lexer/   a preprocessor-aware C++ lexer: comments, string/char/raw
//            string literals, line splices, digraphs, and `#if 0`
//            regions are handled as translation phases, not masking
//            heuristics; `#define` bodies stay in the token stream
//   index/   per-file facts (functions, calls, allocation sites,
//            unordered-container symbols, iteration sites,
//            suppressions) + the cross-TU program index built from
//            them: an include graph and a symbol/call table. Facts
//            serialize to the on-disk content-hash cache.
//   rules/   rule families over tokens + index:
//            core          v1 rule ports (clocks, PRNGs, taxonomy,
//                          float time, header hygiene + include
//                          cycles, hot-path std::function, shared
//                          writes)
//            determinism   no-unseeded-container-hash,
//                          no-iteration-order-leak,
//                          no-time-arith-overflow
//            hot-path      no-hot-path-alloc (call-table reachability
//                          from Queue::enqueue / Link or Node deliver /
//                          EventQueue::pop)
//            resource      governor-charge-release pairing
//
// Enforced rules gate the build; advisory rules are reported (and
// suppressible) like any other but do not fail the lint gate — the CLI
// exits non-zero only when an enforced finding survives suppression
// and, when a baseline is given, is not in the committed baseline.
//
// Suppression syntax (a reason is mandatory, rule names must be known,
// and the directive must open its comment):
//   code();  // slowcc-lint: allow(rule) reason text
//   // slowcc-lint: allow(rule-a, rule-b) reason   <- applies to next line
//   // slowcc-lint: allow-file(rule) reason        <- whole file
// A malformed suppression (unknown rule, missing reason) is itself
// reported under the reserved rule name `bad-suppression`, which cannot
// be suppressed.

#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.hpp"
#include "lint/index/index.hpp"

namespace slowcc::lint {

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  bool advisory = false;
};

/// Every rule the engine knows, in stable order (for --list-rules and
/// for validating allow() directives).
[[nodiscard]] const std::vector<RuleInfo>& all_rules();

/// True if `name` names a real rule.
[[nodiscard]] bool is_known_rule(std::string_view name);

/// Lex + analyze one file into its cacheable facts: structure
/// (functions/calls/allocs), unordered symbols, iteration sites,
/// quoted includes, suppressions, and all single-file findings
/// (pre-suppression). Pure function of (path, content) — this is the
/// unit the content-hash cache stores.
[[nodiscard]] FileFacts extract_facts(const SourceFile& source);

/// Run the cross-file rules over a batch of facts (fresh or from the
/// cache), merge with each file's local findings, apply suppressions,
/// and mark advisory rules. Findings are ordered by file, line, rule.
[[nodiscard]] std::vector<Finding> run_from_facts(
    const std::vector<FileFacts>& facts);

/// extract_facts + run_from_facts over a batch of sources. Cross-file
/// state (symbol table, call table, include graph) is built from the
/// whole batch, so pass every file of interest in one call.
[[nodiscard]] std::vector<Finding> run(const std::vector<SourceFile>& sources);

/// Engine + rule-set version stamp. Cached facts recorded under a
/// different fingerprint are discarded, so rule changes invalidate the
/// cache without a manual wipe.
[[nodiscard]] std::string_view rules_fingerprint();

// -- baselines -------------------------------------------------------
//
// A baseline is a committed set of finding fingerprints; the CLI gates
// on findings *absent* from it, so a rule rollout can land before the
// tree is fully clean. Fingerprints are line-free (rule|file|message),
// which keeps them stable across unrelated edits to the same file.

[[nodiscard]] std::string finding_fingerprint(const Finding& finding);
[[nodiscard]] std::set<std::string> parse_baseline(std::istream& in);
void write_baseline(const std::vector<Finding>& findings, std::ostream& out);

// -- reporters -------------------------------------------------------

/// JSON string-escaping used by the JSON/SARIF reporters ("\&quot;",
/// \\n, \uXXXX for other control characters). Exposed for tests.
[[nodiscard]] std::string json_escape(std::string_view text);

/// `file:line: [rule] message` + indented fix hint, one finding per
/// block; advisory findings render as `[rule (advisory)]`. Emits
/// nothing for an empty list.
void report_text(const std::vector<Finding>& findings, std::ostream& out);

/// `{"count": N, "findings": [{file, line, rule, advisory, message,
/// hint}, ...]}`.
void report_json(const std::vector<Finding>& findings, std::ostream& out);

/// Minimal SARIF 2.1.0: one run, driver `slowcc_lint` with rule
/// metadata, one result per finding (enforced -> "error", advisory ->
/// "note") with a physicalLocation. Uploadable as a CI artifact.
void report_sarif(const std::vector<Finding>& findings, std::ostream& out);

}  // namespace slowcc::lint
