// slowcc_lint — CLI driver for the determinism & resource-invariant
// linter.
//
//   slowcc_lint [--root DIR] [--list-rules] [paths...]
//
// Walks the given paths (default: src bench tools examples) under
// --root, lints every .cpp/.cc/.hpp/.h, and prints findings as text.
// Exit code: 0 clean, 1 findings, 2 usage or I/O error — suitable for
// CI and for the `lint` CMake target. Rules, scoping, and the inline
// suppression syntax are documented in tools/lint/lint.hpp and
// DESIGN.md §8.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace fs = std::filesystem;
using slowcc::lint::Finding;
using slowcc::lint::SourceFile;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: slowcc_lint [--root DIR] [--list-rules] [paths...]\n"
         "  --root DIR      repo root paths are resolved against "
         "(default: .)\n"
         "  --list-rules    print every rule with a summary and exit\n"
         "  paths           files or directories relative to --root\n"
         "                  (default: src bench tools examples)\n";
  return code;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

/// Repo-relative display path with forward slashes (rule scoping keys
/// off prefixes like "src/").
std::string display_path(const fs::path& file, const fs::path& root) {
  const fs::path rel = file.lexically_relative(root);
  return (rel.empty() || *rel.begin() == "..") ? file.generic_string()
                                               : rel.generic_string();
}

bool read_file(const fs::path& file, std::string* out) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--list-rules") {
      for (const auto& rule : slowcc::lint::all_rules()) {
        std::cout << rule.name << "\n    " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--root") {
      if (++i >= argc) return usage(std::cerr, 2);
      root = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "slowcc_lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tools", "examples"};

  std::vector<fs::path> files;
  for (const auto& entry : paths) {
    const fs::path path = root / entry;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      std::cerr << "slowcc_lint: no such file or directory: "
                << path.string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    SourceFile source;
    source.path = display_path(file, root);
    if (!read_file(file, &source.content)) {
      std::cerr << "slowcc_lint: cannot read " << file.string() << "\n";
      return 2;
    }
    sources.push_back(std::move(source));
  }

  const std::vector<Finding> findings = slowcc::lint::run(sources);
  slowcc::lint::report_text(findings, std::cout);
  std::cerr << "slowcc_lint: " << sources.size() << " files, "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
