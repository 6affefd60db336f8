#pragma once

// slowcc-lint rule families, running over the lexer's token stream and
// the cross-TU program index (see lint/lexer/ and lint/index/).
//
//   rules_core.cpp        v1 rule ports (clocks, PRNGs, taxonomy, float
//                         time, header hygiene, hot-path std::function,
//                         shared writes) + include-cycle hygiene +
//                         orchestration (run_local / run_global)
//   rules_determinism.cpp no-unseeded-container-hash,
//                         no-time-arith-overflow, iteration-site
//                         extraction and order-leak classification
//   rules_hotpath.cpp     no-hot-path-alloc (call-table reachability)
//
// Local checks append pre-suppression findings (and facts: unordered
// symbols, iteration sites) to one file's FileFacts; global checks see
// the whole batch plus the ProgramIndex. The engine (lint.cpp) owns
// suppression filtering and ordering.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.hpp"
#include "lint/index/index.hpp"
#include "lint/lexer/lexer.hpp"

namespace slowcc::lint::rules {

/// Run every single-file rule over one lexed file, appending to
/// `out->local_findings` and filling the facts the global rules need.
void run_local(const std::string& path, const lex::LexedSource& lx,
               FileFacts* out);

/// Run every cross-file rule over the batch. `facts` must be in
/// deterministic (path-sorted) order.
void run_global(const std::vector<const FileFacts*>& facts,
                const ProgramIndex& index, std::vector<Finding>* out);

namespace detail {

/// 1-based physical line -> indices into the token stream.
using LineMap = std::map<int, std::vector<std::size_t>>;

[[nodiscard]] LineMap tokens_by_line(const std::vector<lex::Token>& toks);

[[nodiscard]] inline bool is_ident(const lex::Token& t, std::string_view s) {
  return t.kind == lex::TokKind::kIdent && t.text == s;
}
[[nodiscard]] inline bool is_punct(const lex::Token& t, std::string_view s) {
  return t.kind == lex::TokKind::kPunct && t.text == s;
}

/// Port of v1's qualified_as_foreign_member: true when token `i` is
/// reached as a member (`.` / `->`) or via a namespace other than
/// `std` / the global scope — `foo.time()` and `Clock::time()` are
/// someone else's API; `time(...)`, `std::time(...)`, `::time(...)`
/// are the libc call.
[[nodiscard]] bool foreign_qualified(const std::vector<lex::Token>& toks,
                                     std::size_t i);

/// True when the next token is '(' — the identifier is called.
[[nodiscard]] bool next_is_call(const std::vector<lex::Token>& toks,
                                std::size_t i);

[[nodiscard]] inline bool starts_with(std::string_view s,
                                      std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
[[nodiscard]] inline bool ends_with(std::string_view s,
                                    std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}
[[nodiscard]] inline bool is_header(std::string_view path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}
[[nodiscard]] inline bool in_src(std::string_view path) {
  return starts_with(path, "src/");
}

void add(FileFacts* out, const std::string& path, int line,
         std::string_view rule, std::string message, std::string hint);

// -- core family (rules_core.cpp) ------------------------------------
void check_wall_clock(const std::string& path,
                      const std::vector<lex::Token>& toks,
                      const LineMap& lines, FileFacts* out);
void check_raw_rand(const std::string& path,
                    const std::vector<lex::Token>& toks, const LineMap& lines,
                    FileFacts* out);
void check_error_taxonomy(const std::string& path,
                          const std::vector<lex::Token>& toks,
                          const LineMap& lines, FileFacts* out);
void check_float_time(const std::string& path,
                      const std::vector<lex::Token>& toks,
                      const LineMap& lines, FileFacts* out);
void check_header_hygiene(const std::string& path, const lex::LexedSource& lx,
                          FileFacts* out);
void check_std_function_hot_path(const std::string& path,
                                 const std::vector<lex::Token>& toks,
                                 const LineMap& lines, FileFacts* out);
void check_unguarded_shared_write(const std::string& path,
                                  const std::vector<lex::Token>& toks,
                                  const LineMap& lines, FileFacts* out);
void check_include_cycles(const ProgramIndex& index,
                          std::vector<Finding>* out);

// -- determinism family (rules_determinism.cpp) ----------------------
void check_container_hash(const std::string& path,
                          const std::vector<lex::Token>& toks, FileFacts* out);
void check_time_arith_overflow(const std::string& path,
                               const std::vector<lex::Token>& toks,
                               const LineMap& lines, FileFacts* out);
void collect_iteration_sites(const std::vector<lex::Token>& toks,
                             FileFacts* out);
void classify_iterations(const std::vector<const FileFacts*>& facts,
                         const ProgramIndex& index, std::vector<Finding>* out);

// -- hot-path family (rules_hotpath.cpp) -----------------------------
void check_hot_path_alloc(const std::vector<const FileFacts*>& facts,
                          const ProgramIndex& index, std::vector<Finding>* out);

}  // namespace detail

}  // namespace slowcc::lint::rules
