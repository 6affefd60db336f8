#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "lint/index/index.hpp"
#include "lint/lexer/lexer.hpp"
#include "lint/rules/rules.hpp"

namespace slowcc::lint {

namespace {

constexpr std::string_view kDirective = "slowcc-lint:";
constexpr std::string_view kBadSuppression = "bad-suppression";

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Parse one comment's text for a suppression directive; the directive
/// must open the comment ("// slowcc-lint: ..."), so prose that merely
/// mentions the syntax never parses as one. Malformed directives become
/// bad-suppression findings (which are themselves unsuppressible).
void parse_directive(const std::string& path, int line_no, bool line_has_code,
                     const std::string& comment, FileFacts* out) {
  const std::string trimmed = trim(comment);
  if (!starts_with(trimmed, kDirective)) return;
  std::string rest = trim(trimmed.substr(kDirective.size()));

  const auto error = [&](std::string message, std::string hint) {
    Finding f;
    f.file = path;
    f.line = line_no;
    f.rule = std::string(kBadSuppression);
    f.message = std::move(message);
    f.hint = std::move(hint);
    out->local_findings.push_back(std::move(f));
  };

  bool file_scope = false;
  if (starts_with(rest, "allow-file")) {
    file_scope = true;
    rest = trim(rest.substr(std::string_view("allow-file").size()));
  } else if (starts_with(rest, "allow")) {
    rest = trim(rest.substr(std::string_view("allow").size()));
  } else {
    error(
        "unrecognized slowcc-lint directive (expected allow(...) or "
        "allow-file(...))",
        "write: // slowcc-lint: allow(<rule>) <reason>");
    return;
  }
  if (rest.empty() || rest[0] != '(') {
    error("suppression is missing its (rule, ...) list",
          "write: // slowcc-lint: allow(<rule>) <reason>");
    return;
  }
  const std::size_t close = rest.find(')');
  if (close == std::string::npos) {
    error("unterminated rule list in suppression",
          "write: // slowcc-lint: allow(<rule>) <reason>");
    return;
  }

  std::set<std::string> rules;
  std::stringstream list(rest.substr(1, close - 1));
  std::string item;
  while (std::getline(list, item, ',')) {
    const std::string rule = trim(item);
    if (rule.empty()) continue;
    if (!is_known_rule(rule)) {
      error("suppression names unknown rule '" + rule + "'",
            "run slowcc_lint --list-rules for valid names");
      return;
    }
    rules.insert(rule);
  }
  const std::string reason = trim(rest.substr(close + 1));
  if (rules.empty() || reason.empty()) {
    error(rules.empty() ? "suppression allows no rules"
                        : "suppression is missing its reason string",
          "every allow() needs at least one rule and a justification");
    return;
  }

  if (file_scope) {
    for (const std::string& rule : rules) out->file_allow.push_back(rule);
  } else {
    // A trailing comment guards its own line; a comment on a line of
    // its own guards the next line.
    const int target = line_has_code ? line_no : line_no + 1;
    for (const std::string& rule : rules) {
      out->line_allow.emplace_back(target, rule);
    }
  }
}

void parse_suppressions(const std::string& path, const lex::LexedSource& lx,
                        FileFacts* out) {
  // A line "has code" when any token or directive sits on it — that is
  // what decides whether a trailing directive guards its own line or
  // the next one.
  std::set<int> code_lines;
  for (const lex::Token& tok : lx.tokens) code_lines.insert(tok.line);
  for (const lex::Directive& dir : lx.directives) code_lines.insert(dir.line);
  for (const auto& [line_no, comment] : lx.comments) {
    parse_directive(path, line_no, code_lines.count(line_no) != 0, comment,
                    out);
  }
}

/// Lex + analyze one file: structure (functions/calls/allocs),
/// unordered symbols, iteration sites, quoted includes, suppressions,
/// and all single-file findings (pre-suppression).
FileFacts extract_facts(const SourceFile& source) {
  const lex::LexedSource lx = lex::lex(source.content);
  FileFacts facts;
  facts.path = source.path;
  analyze_structure(lx, &facts);
  rules::run_local(source.path, lx, &facts);
  parse_suppressions(source.path, lx, &facts);
  for (const lex::Directive& dir : lx.directives) {
    if (dir.keyword == "include" && dir.quoted_include) {
      facts.includes.push_back(dir.include_target);
    }
  }
  return facts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      {"no-wall-clock",
       "bans wall/monotonic clock reads outside src/exp/ deadline code"},
      {"no-raw-rand",
       "bans rand()/std::random_device/std engines; use seeded sim::Rng"},
      {"no-unordered-iteration",
       "flags range-for over unordered_map/unordered_set (order is "
       "unspecified)"},
      {"no-iteration-order-leak",
       "flags unordered iteration whose body feeds serialized output "
       "(operator<<, append/print calls) — order reaches results"},
      {"no-unseeded-container-hash",
       "flags pointer-keyed unordered containers with the default hasher; "
       "address hashing makes iteration order vary per run"},
      {"no-time-arith-overflow",
       "flags unguarded +/* on a time-horizon sentinel (Time::max(), "
       "INT64_MAX) in src/; clamp before arithmetic near the horizon"},
      {"error-taxonomy", "every throw under src/ must construct sim::SimError"},
      {"no-float-time",
       "flags unit-less double/float time variables; use sim::Time"},
      {"header-hygiene",
       "headers must open with #pragma once, avoid using-namespace, and "
       "stay out of include cycles"},
      {"no-std-function-hot-path",
       "std::function in src/sim/ and src/net/ engine code; pool POD "
       "entries and keep type erasure at the EventQueue::Callback "
       "boundary"},
      {"no-hot-path-alloc",
       "heap allocation or container growth in code reachable from "
       "Queue::enqueue / deliver / EventQueue::pop / Lane::fire_head "
       "and its acquire_lane callbacks (call-table walk); "
       "pre-size or pool on the per-packet path"},
      {"no-unguarded-shared-write",
       "raw ofstream/fopen/::open writes in src/exp/ checkpoint dirs; "
       "use write_file_atomic / JsonlAppender"},
  };
  return kRules;
}

bool is_known_rule(std::string_view name) {
  for (const auto& rule : all_rules()) {
    if (rule.name == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

std::vector<Finding> run(const std::vector<SourceFile>& sources) {
  std::vector<FileFacts> facts;
  facts.reserve(sources.size());
  for (const SourceFile& source : sources) {
    facts.push_back(extract_facts(source));
  }
  // Deterministic batch order regardless of how the caller collected
  // the files.
  std::vector<const FileFacts*> sorted;
  sorted.reserve(facts.size());
  for (const FileFacts& file : facts) sorted.push_back(&file);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FileFacts* a, const FileFacts* b) {
                     return a->path < b->path;
                   });

  const ProgramIndex index = build_index(sorted);
  std::vector<Finding> merged;
  for (const FileFacts* file : sorted) {
    merged.insert(merged.end(), file->local_findings.begin(),
                  file->local_findings.end());
  }
  rules::run_global(sorted, index, &merged);

  // Suppression filtering against the owning file's directives.
  std::map<std::string, const FileFacts*> by_path;
  for (const FileFacts* file : sorted) by_path.emplace(file->path, file);
  std::vector<Finding> findings;
  for (Finding& finding : merged) {
    const auto it = by_path.find(finding.file);
    if (finding.rule != kBadSuppression && it != by_path.end()) {
      const FileFacts* file = it->second;
      if (std::find(file->file_allow.begin(), file->file_allow.end(),
                    finding.rule) != file->file_allow.end()) {
        continue;
      }
      const std::pair<int, std::string> key{finding.line, finding.rule};
      if (std::find(file->line_allow.begin(), file->line_allow.end(), key) !=
          file->line_allow.end()) {
        continue;
      }
    }
    findings.push_back(std::move(finding));
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

// ---------------------------------------------------------------------------
// Reporter.
// ---------------------------------------------------------------------------

void report_text(const std::vector<Finding>& findings, std::ostream& out) {
  for (const auto& finding : findings) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule
        << "] " << finding.message << "\n";
    if (!finding.hint.empty()) out << "    hint: " << finding.hint << "\n";
  }
}

}  // namespace slowcc::lint
