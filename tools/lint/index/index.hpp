#pragma once

// slowcc-lint program indices — per-file facts extracted from the token
// stream, and the cross-TU indices built from a whole batch of facts.
//
// A file's facts are everything the global rules need from it
// (function/call/alloc structure, unordered-container symbols,
// iteration sites, includes, suppressions, and the file's local
// findings), so the cross-file rules run over facts, not tokens.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/finding.hpp"
#include "lint/lexer/lexer.hpp"

namespace slowcc::lint {

/// An allocation (or container-growth) site inside a function body.
struct AllocSite {
  int line = 0;
  std::string what;  // "new", "make_shared", "push_back", ...
};

/// One function definition. `cls` is the enclosing/qualifying class
/// ("" for free functions); `name` the simple name ("~X" for a
/// destructor).
struct FuncDef {
  std::string cls;
  std::string name;
  int line = 0;
  /// Simple (last) names of the functions this body calls.
  std::vector<std::string> calls;
  std::vector<AllocSite> allocs;
  /// Functions whose address this body passes to `acquire_lane`
  /// (`&Cls::f` or `&f`), by simple name: the lane fire callbacks.
  std::vector<std::string> lane_fires;
};

/// A range-for whose range expression ends in a plain identifier.
/// `leaks_output` marks bodies that feed serialized output (operator<<,
/// push_back/append, printf-family).
struct IterationSite {
  int line = 0;
  std::string base;
  bool leaks_output = false;
};

/// Everything the engine knows about one file.
struct FileFacts {
  std::string path;
  std::vector<std::string> unordered_symbols;  // unordered-container vars
  std::vector<std::string> includes;           // quoted #include targets
  std::vector<FuncDef> functions;
  std::vector<IterationSite> iteration_sites;
  std::vector<std::string> file_allow;  // file-scope suppressed rules
  std::vector<std::pair<int, std::string>> line_allow;  // line -> rule
  std::vector<Finding> local_findings;  // pre-suppression single-file findings
};

/// Token-stream structure analysis: classes, function definitions (with
/// qualified-name and in-class attribution), call sites, allocation
/// sites. Appends to `out->functions`.
void analyze_structure(const lex::LexedSource& lx, FileFacts* out);

/// Cross-TU indices over a batch of facts.
struct ProgramIndex {
  struct FuncRef {
    const FuncDef* def = nullptr;
    const FileFacts* file = nullptr;
  };
  /// Every unordered-container symbol in the batch.
  std::set<std::string> unordered_symbols;
  /// Simple function name -> definitions, in deterministic (file, line)
  /// order — the call table.
  std::map<std::string, std::vector<FuncRef>> functions_by_name;
  /// path -> batch paths it includes (quoted includes resolved by path
  /// suffix) — the include graph.
  std::map<std::string, std::vector<std::string>> include_edges;
};

/// `facts` must be in deterministic (path-sorted) order; the index
/// preserves it, so BFS walks and reports come out stable.
[[nodiscard]] ProgramIndex build_index(
    const std::vector<const FileFacts*>& facts);

/// Include-graph cycle scan: one entry per cycle, as the sorted list of
/// paths on the cycle. Deterministic.
[[nodiscard]] std::vector<std::vector<std::string>> find_include_cycles(
    const ProgramIndex& index);

}  // namespace slowcc::lint
