#pragma once

// slowcc-lint — a dependency-free static-analysis pass that enforces the
// project's determinism, hot-path, and error-taxonomy
// invariants (see DESIGN.md §8).
//
// Architecture (tools/lint/):
//   lexer/   a preprocessor-aware C++ lexer: comments, string/char/raw
//            string literals, line splices, digraphs, and `#if 0`
//            regions are handled as translation phases, not masking
//            heuristics; `#define` bodies stay in the token stream
//   index/   per-file facts (functions, calls, allocation sites,
//            unordered-container symbols, iteration sites,
//            suppressions) + the cross-TU program index built from
//            them: an include graph and a symbol/call table
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
//                          EventQueue::pop / Lane::fire_head and the
//                          callbacks passed to acquire_lane)
//
// Every rule gates: the CLI exits non-zero when any finding survives
// suppression.
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
#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.hpp"

namespace slowcc::lint {

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// Every rule the engine knows, in stable order (for --list-rules and
/// for validating allow() directives).
[[nodiscard]] const std::vector<RuleInfo>& all_rules();

/// True if `name` names a real rule.
[[nodiscard]] bool is_known_rule(std::string_view name);

/// Lint a batch of sources: lex and analyze each file, run the
/// cross-file rules, and apply suppressions. Cross-file state (symbol
/// table, call table, include graph) is built from the whole batch, so
/// pass every file of interest in one call. Findings are ordered by
/// file, line, rule.
[[nodiscard]] std::vector<Finding> run(const std::vector<SourceFile>& sources);

/// `file:line: [rule] message` + indented fix hint, one finding per
/// block. Emits nothing for an empty list.
void report_text(const std::vector<Finding>& findings, std::ostream& out);

}  // namespace slowcc::lint
