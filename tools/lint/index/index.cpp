#include "lint/index/index.hpp"

#include <algorithm>
#include <array>

namespace slowcc::lint {

namespace {

using lex::TokKind;
using lex::Token;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Keywords that look like calls (`if (...)`) or that preface a
/// parenthesized construct which is not a function definition.
bool control_keyword(const std::string& text) {
  static const std::array<std::string_view, 18> kWords = {
      "if",       "for",          "while",    "switch",   "return",
      "sizeof",   "alignof",      "decltype", "noexcept", "catch",
      "throw",    "static_assert", "using",   "namespace", "defined",
      "alignas",  "co_await",     "co_return",
  };
  return std::find(kWords.begin(), kWords.end(), text) != kWords.end();
}

bool growth_method(const std::string& text) {
  static const std::array<std::string_view, 6> kGrowth = {
      "push_back", "emplace_back", "emplace", "insert", "resize", "reserve"};
  return std::find(kGrowth.begin(), kGrowth.end(), text) != kGrowth.end();
}

struct ClassScope {
  std::string name;
  int open_depth = 0;  // brace depth inside the class body
};

/// Find the matching close for the open paren/brace at `open`, or
/// tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& t, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (is_punct(t[j], opener)) ++depth;
    if (is_punct(t[j], closer) && --depth == 0) return j;
  }
  return t.size();
}

}  // namespace

void analyze_structure(const lex::LexedSource& lx, FileFacts* out) {
  const std::vector<Token>& t = lx.tokens;
  int depth = 0;
  std::vector<ClassScope> classes;
  // token index of a class body's '{' -> class name
  std::map<std::size_t, std::string> pending_class;
  FuncDef* body = nullptr;  // open function while scanning its body
  int body_depth = 0;       // brace depth at which `body` closes

  // Pre-scan for class/struct heads so the main walk can push scope at
  // the exact '{' token.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(is_ident(t[i], "class") || is_ident(t[i], "struct"))) continue;
    if (i > 0 && is_ident(t[i - 1], "enum")) continue;  // enum class
    std::size_t j = i + 1;
    std::string name;
    while (j < t.size()) {
      if (t[j].kind == TokKind::kIdent && t[j].text != "final" &&
          t[j].text != "alignas") {
        name = t[j].text;  // last ident before '{'/';'/':' wins: handles
        ++j;               // attributes and macro tags before the name
        if (j < t.size() && (is_punct(t[j], "{") || is_punct(t[j], ":") ||
                             is_punct(t[j], ";") || is_punct(t[j], "<"))) {
          break;
        }
        continue;
      }
      break;
    }
    if (name.empty()) continue;
    // Scan to the body '{' (skipping template args and base lists) or
    // bail at ';' (forward declaration) / '(' (a variable like
    // `struct tm x(...)` or function returning a struct).
    int angle = 0;
    for (; j < t.size(); ++j) {
      if (is_punct(t[j], "<")) ++angle;
      if (is_punct(t[j], ">") && angle > 0) --angle;
      if (angle > 0) continue;
      if (is_punct(t[j], ";") || is_punct(t[j], "(") || is_punct(t[j], "=")) {
        break;
      }
      if (is_punct(t[j], "{")) {
        pending_class[j] = name;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (is_punct(tok, "{")) {
      const auto pc = pending_class.find(i);
      ++depth;
      if (pc != pending_class.end()) {
        classes.push_back({pc->second, depth});
      }
      continue;
    }
    if (is_punct(tok, "}")) {
      --depth;
      while (!classes.empty() && classes.back().open_depth > depth) {
        classes.pop_back();
      }
      if (body != nullptr && depth <= body_depth) body = nullptr;
      continue;
    }

    if (body != nullptr) {
      // ---- inside a function body: collect calls and alloc sites ----
      if (tok.kind != TokKind::kIdent) continue;
      const bool prev_member =
          i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
      if (tok.text == "new" && !prev_member) {
        body->allocs.push_back({tok.line, "new"});
        continue;
      }
      const bool next_open =
          i + 1 < t.size() &&
          (is_punct(t[i + 1], "(") || is_punct(t[i + 1], "<"));
      if ((tok.text == "make_shared" || tok.text == "make_unique") &&
          next_open) {
        body->allocs.push_back({tok.line, tok.text});
        continue;
      }
      if (i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        if (control_keyword(tok.text)) continue;
        if (i > 0 && is_ident(t[i - 1], "new")) continue;  // new Foo(...)
        if (prev_member && growth_method(tok.text)) {
          body->allocs.push_back({tok.line, tok.text});
        }
        body->calls.push_back(tok.text);
        if (tok.text == "acquire_lane") {
          // `&X::f` / `&f` in the argument list: the last ident of
          // each address-of chain is a callback the lane will fire.
          const std::size_t close = match_forward(t, i + 1, "(", ")");
          for (std::size_t j = i + 2; j < close; ++j) {
            if (!is_punct(t[j - 1], "&") || t[j].kind != TokKind::kIdent) {
              continue;
            }
            while (j + 2 < close && is_punct(t[j + 1], "::") &&
                   t[j + 2].kind == TokKind::kIdent) {
              j += 2;
            }
            body->lane_fires.push_back(t[j].text);
          }
        }
      }
      continue;
    }

    // ---- declaration scope: look for function definitions ----------
    if (!is_punct(tok, "(") || i == 0) continue;

    // Walk back over the name: ident, '::', '~', or operator+punct.
    std::size_t k = i;  // one past the last name token (exclusive walk)
    std::string simple;
    std::string qualifier_cls;
    bool dtor = false;
    {
      std::size_t p = i;
      // operator overloads: puncts between 'operator' and '('.
      std::size_t q = p;
      std::string op_text;
      while (q > 0 && t[q - 1].kind == TokKind::kPunct &&
             !is_punct(t[q - 1], ")") && !is_punct(t[q - 1], "}") &&
             op_text.size() < 4) {
        op_text = t[q - 1].text + op_text;
        --q;
      }
      if (q > 0 && is_ident(t[q - 1], "operator") && !op_text.empty()) {
        simple = "operator" + op_text;
        k = q - 1;
      } else if (p > 0 && t[p - 1].kind == TokKind::kIdent) {
        simple = t[p - 1].text;
        k = p - 1;
        if (k > 0 && is_punct(t[k - 1], "~")) {
          dtor = true;
          simple = "~" + simple;
          --k;
        }
      } else {
        continue;  // lambda, cast, or expression parenthesis
      }
      // Collect the qualifier chain: Cls:: (possibly Ns::Cls::).
      std::vector<std::string> quals;
      while (k >= 2 && is_punct(t[k - 1], "::") &&
             t[k - 2].kind == TokKind::kIdent) {
        quals.push_back(t[k - 2].text);
        k -= 2;
      }
      if (!quals.empty()) qualifier_cls = quals.front();  // innermost
    }
    if (simple.empty() || control_keyword(simple)) continue;
    if (dtor && qualifier_cls.empty() && classes.empty()) continue;

    const std::size_t close = match_forward(t, i, "(", ")");
    if (close >= t.size()) continue;

    // Between ')' and the body '{': specifiers, trailing return, or a
    // ctor-init list. A ';', '=', or ',' at this level means this was
    // only a declaration (or a variable) — not a definition.
    std::size_t j = close + 1;
    bool in_init_list = false;
    std::size_t body_open = t.size();
    for (; j < t.size(); ++j) {
      if (is_punct(t[j], "(")) {
        j = match_forward(t, j, "(", ")");
        if (j >= t.size()) break;
        continue;
      }
      if (is_punct(t[j], "{")) {
        // In a ctor-init list a '{' directly after an identifier or
        // template-close is a braced member initializer — skip it.
        if (in_init_list && j > 0 &&
            (t[j - 1].kind == TokKind::kIdent || is_punct(t[j - 1], ">"))) {
          j = match_forward(t, j, "{", "}");
          if (j >= t.size()) break;
          continue;
        }
        body_open = j;
        break;
      }
      if (is_punct(t[j], ":")) {
        in_init_list = true;
        continue;
      }
      if (is_punct(t[j], ";") || is_punct(t[j], "=") ||
          (!in_init_list && is_punct(t[j], ","))) {
        break;
      }
    }
    if (body_open >= t.size()) continue;

    FuncDef def;
    def.cls = !qualifier_cls.empty()
                  ? qualifier_cls
                  : (classes.empty() ? std::string() : classes.back().name);
    def.name = simple;
    def.line = t[k < t.size() ? k : i].line;
    out->functions.push_back(std::move(def));
    body = &out->functions.back();
    body_depth = depth;  // body closes when depth returns here
    // Jump the main walk to the '{' so init-list calls are skipped.
    i = body_open - 1;
  }
}

ProgramIndex build_index(const std::vector<const FileFacts*>& facts) {
  ProgramIndex index;
  for (const FileFacts* file : facts) {
    index.unordered_symbols.insert(file->unordered_symbols.begin(),
                                   file->unordered_symbols.end());
    for (const FuncDef& fn : file->functions) {
      index.functions_by_name[fn.name].push_back({&fn, file});
    }
  }
  // Resolve quoted includes against the batch by path suffix.
  std::vector<std::string> paths;
  paths.reserve(facts.size());
  for (const FileFacts* file : facts) paths.push_back(file->path);
  std::sort(paths.begin(), paths.end());
  for (const FileFacts* file : facts) {
    std::vector<std::string>& edges = index.include_edges[file->path];
    for (const std::string& target : file->includes) {
      for (const std::string& path : paths) {
        if (path == target ||
            (path.size() > target.size() + 1 &&
             path.compare(path.size() - target.size(), target.size(),
                          target) == 0 &&
             path[path.size() - target.size() - 1] == '/')) {
          edges.push_back(path);
        }
      }
    }
  }
  return index;
}

std::vector<std::vector<std::string>> find_include_cycles(
    const ProgramIndex& index) {
  std::vector<std::vector<std::string>> cycles;
  std::set<std::vector<std::string>> seen;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;

  // Recursive lambda via explicit work since depth is tiny in practice.
  struct Frame {
    std::string node;
    std::size_t next_edge = 0;
  };
  for (const auto& [start, _] : index.include_edges) {
    if (color[start] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({start, 0});
    color[start] = 1;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto it = index.include_edges.find(frame.node);
      const std::vector<std::string>* edges =
          it != index.include_edges.end() ? &it->second : nullptr;
      if (edges == nullptr || frame.next_edge >= edges->size()) {
        color[frame.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string next = (*edges)[frame.next_edge++];
      if (color[next] == 1) {
        // Back edge: the cycle is the stack suffix from `next`.
        const auto pos = std::find(stack.begin(), stack.end(), next);
        std::vector<std::string> cycle(pos, stack.end());
        std::sort(cycle.begin(), cycle.end());
        if (seen.insert(cycle).second) cycles.push_back(cycle);
        continue;
      }
      if (color[next] == 0) {
        color[next] = 1;
        stack.push_back(next);
        frames.push_back({next, 0});
      }
    }
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

}  // namespace slowcc::lint
