#pragma once

// Shared diagnostic types for slowcc-lint. Split out of lint.hpp so the
// index/rules layers can use them without pulling in the engine API.

#include <string>

namespace slowcc::lint {

/// One diagnostic: where, which rule, what, and how to fix it.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;
};

/// A source file handed to the engine. `path` is repo-relative with
/// forward slashes ("src/sim/rng.cpp") — rule scoping keys off it.
struct SourceFile {
  std::string path;
  std::string content;
};

}  // namespace slowcc::lint
