#include <algorithm>
#include <array>
#include <set>

#include "lint/rules/rules.hpp"

// Core rule family: the v1 rules, re-implemented over the token stream.
// Findings must stay identical-or-better vs the v1 masked-line scanner:
// same rule names, same messages, same one-finding-per-word-per-line
// shape — minus v1's masking false positives (spliced comments, raw
// string bodies) which the lexer now removes before rules ever run.

namespace slowcc::lint::rules {

namespace detail {

using lex::TokKind;
using lex::Token;

LineMap tokens_by_line(const std::vector<Token>& toks) {
  LineMap lines;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    lines[toks[i].line].push_back(i);
  }
  return lines;
}

bool foreign_qualified(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return true;
  if (is_punct(prev, "::") && i >= 2) {
    const Token& qual = toks[i - 2];
    return qual.kind == TokKind::kIdent && qual.text != "std";
  }
  return false;
}

bool next_is_call(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() && is_punct(toks[i + 1], "(");
}

void add(FileFacts* out, const std::string& path, int line,
         std::string_view rule, std::string message, std::string hint) {
  Finding f;
  f.file = path;
  f.line = line;
  f.rule = std::string(rule);
  f.message = std::move(message);
  f.hint = std::move(hint);
  out->local_findings.push_back(std::move(f));
}

namespace {

/// Shared shape of no-wall-clock / no-raw-rand: a set of words that are
/// findings on sight (at most one per line, first in `any_use` order —
/// matching v1's scan order), plus a set that must be called unqualified
/// (one finding per word per line).
void check_banned_words(const std::string& path,
                        const std::vector<Token>& toks, const LineMap& lines,
                        std::string_view rule,
                        const std::vector<std::string_view>& any_use,
                        std::string_view any_use_label,
                        const std::vector<std::string_view>& call_only,
                        std::string_view call_only_label,
                        const std::string& hint, FileFacts* out) {
  for (const auto& [line_no, idx] : lines) {
    for (const std::string_view word : any_use) {
      const bool hit = std::any_of(idx.begin(), idx.end(), [&](std::size_t i) {
        return is_ident(toks[i], word);
      });
      if (hit) {
        add(out, path, line_no, rule,
            std::string(any_use_label) + " '" + std::string(word) + "'",
            hint);
        break;
      }
    }
    for (const std::string_view word : call_only) {
      for (const std::size_t i : idx) {
        if (!is_ident(toks[i], word)) continue;
        if (!next_is_call(toks, i)) continue;
        if (foreign_qualified(toks, i)) continue;
        add(out, path, line_no, rule,
            std::string(call_only_label) + " '" + std::string(word) + "()'",
            hint);
        break;
      }
    }
  }
}

}  // namespace

void check_wall_clock(const std::string& path, const std::vector<Token>& toks,
                      const LineMap& lines, FileFacts* out) {
  // src/exp/ owns the sweeps' wall bookkeeping: each trial's wall_ms
  // meter and the runner's wall-clock budget.
  if (starts_with(path, "src/exp/")) return;
  static const std::vector<std::string_view> kAnyUse = {
      "gettimeofday", "clock_gettime", "timespec_get",
      "system_clock", "steady_clock",  "high_resolution_clock",
      "localtime",    "gmtime",
  };
  static const std::vector<std::string_view> kCallOnly = {"time", "clock"};
  check_banned_words(
      path, toks, lines, "no-wall-clock", kAnyUse, "nondeterministic clock",
      kCallOnly, "call to libc",
      "use sim::Time / Simulator::now(); wall clocks are only allowed in "
      "src/exp/ wall-deadline code",
      out);
}

void check_raw_rand(const std::string& path, const std::vector<Token>& toks,
                    const LineMap& lines, FileFacts* out) {
  static const std::vector<std::string_view> kAnyUse = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "ranlux24",      "ranlux48",     "knuth_b",
      "drand48",       "lrand48",      "mrand48",
  };
  static const std::vector<std::string_view> kCallOnly = {"rand", "srand",
                                                          "random", "srandom"};
  check_banned_words(
      path, toks, lines, "no-raw-rand", kAnyUse, "raw PRNG", kCallOnly,
      "call to",
      "draw from a seeded sim::Rng (src/sim/rng.hpp); derive independent "
      "sub-streams with sim::derive_seed()",
      out);
}

void check_error_taxonomy(const std::string& path,
                          const std::vector<Token>& toks, const LineMap& lines,
                          FileFacts* out) {
  if (!in_src(path)) return;
  for (const auto& [line_no, idx] : lines) {
    for (const std::size_t i : idx) {
      if (!is_ident(toks[i], "throw")) continue;
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], ";")) break;  // rethrow
      // Accept `throw [slowcc::][sim::]SimError...` — anything else
      // bypasses the taxonomy.
      if (j < toks.size() && is_ident(toks[j], "slowcc") &&
          j + 1 < toks.size() && is_punct(toks[j + 1], "::")) {
        j += 2;
      }
      if (j < toks.size() && is_ident(toks[j], "sim") && j + 1 < toks.size() &&
          is_punct(toks[j + 1], "::")) {
        j += 2;
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          starts_with(toks[j].text, "SimError")) {
        break;
      }
      add(out, path, line_no, "error-taxonomy",
          "throw bypasses the sim::SimError taxonomy",
          "throw sim::SimError(sim::SimErrc::<code>, \"<component>\", "
          "detail) so harnesses and the quarantine can dispatch on the code");
      break;  // one finding per line, first throw wins (v1 shape)
    }
  }
}

void check_float_time(const std::string& path, const std::vector<Token>& toks,
                      const LineMap& lines, FileFacts* out) {
  if (!in_src(path)) return;
  static const std::array<std::string_view, 4> kBareNames = {
      "now", "when", "deadline", "timestamp"};
  static const std::array<std::string_view, 8> kUnitSuffixes = {
      "_s", "_secs", "_seconds", "_ms", "_us", "_ns", "_rtts", "_rtt"};
  for (const auto& [line_no, idx] : lines) {
    for (const std::size_t i : idx) {
      if (!(is_ident(toks[i], "double") || is_ident(toks[i], "float"))) {
        continue;
      }
      if (i + 1 >= toks.size() || toks[i + 1].kind != TokKind::kIdent) {
        continue;  // pointer/template use, not a named variable
      }
      if (next_is_call(toks, i + 1)) continue;  // function declaration
      const std::string& name = toks[i + 1].text;
      if (name.find("wall") != std::string::npos) continue;
      bool unit_suffixed = false;
      for (const auto suffix : kUnitSuffixes) {
        if (ends_with(name, suffix)) unit_suffixed = true;
      }
      if (unit_suffixed) continue;
      const bool time_like =
          ends_with(name, "time") ||
          std::find(kBareNames.begin(), kBareNames.end(), name) !=
              kBareNames.end();
      if (!time_like) continue;
      add(out, path, line_no, "no-float-time",
          "unit-less floating-point time variable '" + name + "'",
          "store simulation time as sim::Time (integer nanoseconds); if a "
          "double is deliberate, name the unit (" +
              name + "_s)");
    }
  }
}

void check_header_hygiene(const std::string& path, const lex::LexedSource& lx,
                          FileFacts* out) {
  if (!is_header(path)) return;
  // First content = whichever of (first token, first directive) comes
  // first; it must be `#pragma once`.
  int first_line = 0;
  if (!lx.tokens.empty()) first_line = lx.tokens.front().line;
  if (!lx.directives.empty() &&
      (first_line == 0 || lx.directives.front().line < first_line)) {
    first_line = lx.directives.front().line;
  }
  if (first_line != 0) {
    const bool pragma_first = std::any_of(
        lx.directives.begin(), lx.directives.end(), [&](const auto& dir) {
          return dir.line == first_line && dir.keyword == "pragma" &&
                 !dir.args.empty() && dir.args.front() == "once";
        });
    if (!pragma_first) {
      add(out, path, first_line, "header-hygiene",
          "header does not open with #pragma once",
          "make '#pragma once' the first non-comment line");
    }
  }
  int last_flagged_line = 0;
  for (std::size_t i = 0; i + 1 < lx.tokens.size(); ++i) {
    if (!detail::is_ident(lx.tokens[i], "using")) continue;
    if (!detail::is_ident(lx.tokens[i + 1], "namespace")) continue;
    if (lx.tokens[i].line == last_flagged_line) continue;
    last_flagged_line = lx.tokens[i].line;
    add(out, path, lx.tokens[i].line, "header-hygiene",
        "'using namespace' in a header leaks into every includer",
        "qualify names explicitly; headers must stay self-contained");
  }
}

void check_std_function_hot_path(const std::string& path,
                                 const std::vector<Token>& toks,
                                 const LineMap& lines, FileFacts* out) {
  // Advisory, scoped to the event engine and the network data path: a
  // std::function per entry costs an allocation and an indirect call on
  // the hottest loops in the simulator. The public EventQueue::Callback
  // boundary is fine (and suppressed at its declaration).
  if (!starts_with(path, "src/sim/") && !starts_with(path, "src/net/")) {
    return;
  }
  for (const auto& [line_no, idx] : lines) {
    for (const std::size_t i : idx) {
      if (!is_ident(toks[i], "function")) continue;
      if (i < 2 || !is_punct(toks[i - 1], "::") ||
          !is_ident(toks[i - 2], "std")) {
        continue;
      }
      add(out, path, line_no, "no-std-function-hot-path",
          "std::function in event-engine hot-path code",
          "store pooled POD entries (timestamp, seq, node index) in the "
          "engine and keep type-erased callables at the EventQueue::Callback "
          "API boundary; suppress with a reason if this is that boundary");
      break;
    }
  }
}

void check_unguarded_shared_write(const std::string& path,
                                  const std::vector<Token>& toks,
                                  const LineMap& lines, FileFacts* out) {
  // Enforced, scoped to the checkpoint layer: files under src/exp/
  // write into sweep directories that a killed run leaves behind and a
  // resumed run reads back, so every write must be crash-atomic
  // (tmp+fsync+rename) or the sanctioned append+flush journal. The
  // blessed primitives in result_sink.cpp carry suppressions.
  if (!starts_with(path, "src/exp/")) return;
  static constexpr std::string_view kRule = "no-unguarded-shared-write";
  static constexpr std::string_view kHint =
      "route checkpoint-directory writes through exp::write_file_atomic "
      "(tmp+fsync+rename) or exp::JsonlAppender (append+flush journal); "
      "suppress with a reason if this line IS one of those primitives";
  for (const auto& [line_no, idx] : lines) {
    const bool has_ofstream = std::any_of(
        idx.begin(), idx.end(),
        [&](std::size_t i) { return is_ident(toks[i], "ofstream"); });
    if (has_ofstream) {
      add(out, path, line_no, kRule,
          "raw ofstream in shared-checkpoint code can tear mid-write",
          std::string(kHint));
    }
    for (const std::string_view word : {"fopen", "freopen", "creat"}) {
      for (const std::size_t i : idx) {
        if (!is_ident(toks[i], word)) continue;
        if (!next_is_call(toks, i)) continue;
        if (foreign_qualified(toks, i)) continue;
        add(out, path, line_no, kRule,
            "raw " + std::string(word) +
                "() in shared-checkpoint code bypasses the crash-atomic "
                "write primitives",
            std::string(kHint));
        break;
      }
    }
    // Only the globally-qualified `::open(` spelling is flagged: bare
    // `open(` would hit Checkpoint::open declarations and member calls,
    // and `Ns::open(` / `obj.open(` are someone else's API.
    for (const std::size_t i : idx) {
      if (!is_ident(toks[i], "open")) continue;
      if (!next_is_call(toks, i)) continue;
      if (i == 0 || !is_punct(toks[i - 1], "::")) continue;
      if (i >= 2 && toks[i - 2].kind == TokKind::kIdent) continue;
      add(out, path, line_no, kRule,
          "raw ::open() in shared-checkpoint code bypasses the "
          "crash-atomic write primitives",
          std::string(kHint));
      break;
    }
  }
}

void check_include_cycles(const ProgramIndex& index,
                          std::vector<Finding>* out) {
  for (const std::vector<std::string>& cycle : find_include_cycles(index)) {
    std::string chain;
    for (const std::string& path : cycle) {
      if (!chain.empty()) chain += " <-> ";
      chain += path;
    }
    Finding f;
    f.file = cycle.front();
    f.line = 1;
    f.rule = "header-hygiene";
    f.message = "include cycle: " + chain;
    f.hint =
        "break the cycle with a forward declaration or by splitting the "
        "header";
    out->push_back(std::move(f));
  }
}

}  // namespace detail

void run_local(const std::string& path, const lex::LexedSource& lx,
               FileFacts* out) {
  const std::vector<lex::Token>& toks = lx.tokens;
  const detail::LineMap lines = detail::tokens_by_line(toks);
  detail::check_wall_clock(path, toks, lines, out);
  detail::check_raw_rand(path, toks, lines, out);
  detail::check_error_taxonomy(path, toks, lines, out);
  detail::check_float_time(path, toks, lines, out);
  detail::check_header_hygiene(path, lx, out);
  detail::check_std_function_hot_path(path, toks, lines, out);
  detail::check_unguarded_shared_write(path, toks, lines, out);
  detail::check_container_hash(path, toks, out);
  detail::check_time_arith_overflow(path, toks, lines, out);
  detail::collect_iteration_sites(toks, out);
}

void run_global(const std::vector<const FileFacts*>& facts,
                const ProgramIndex& index, std::vector<Finding>* out) {
  detail::classify_iterations(facts, index, out);
  detail::check_hot_path_alloc(facts, index, out);
  detail::check_include_cycles(index, out);
}

}  // namespace slowcc::lint::rules
