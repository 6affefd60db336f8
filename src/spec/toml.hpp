#pragma once

// Dependency-free parser for the TOML subset scenario specs use
// (see DESIGN.md §12). Supported grammar:
//
//   # comment                       (anywhere outside a string)
//   [table]                         (at most once per name)
//   [[array-table]]                 (repeatable; may not mix with [name])
//   key = value                     (inside a table; bare keys only)
//
// Values: integers (within 64 bits), floats, booleans, double-quoted
// strings with \" \\ \n \t \r escapes, and single-line arrays of
// scalars. Dotted keys, inline tables, multi-line strings, and dates
// are deliberately out of scope — a spec that needs them is a spec
// that should be two specs.
//
// Every syntax or structure violation throws sim::SimError(kBadSpec)
// whose detail starts with "<source>:<line>:" and names the offending
// key or token, so `slowcc_sweep --spec broken.toml` prints an exact
// location instead of a stack of guesses.
//
// Ownership: a TomlDoc owns one buffer with the document's bytes.
// Table names, keys and string values are views into it (escapes are
// decoded in place), so they live exactly as long as the document. The
// validator copies what it keeps into the self-owning ScenarioSpec.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace slowcc::spec {

/// One parsed scalar or array value, tagged with its source line.
struct TomlValue {
  enum class Kind : std::uint8_t { kInteger, kFloat, kBool, kString, kArray };
  Kind kind = Kind::kInteger;
  bool boolean = false;      // kBool
  int line = 0;
  std::int64_t integer = 0;  // kInteger
  double number = 0.0;       // kInteger and kFloat (always usable as double)
  std::string_view text;     // kString (unescaped; views the document)
  std::vector<TomlValue> array;  // kArray (scalar elements only)

  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kInteger || kind == Kind::kFloat;
  }
};

struct TomlKeyValue {
  std::string_view key;  // views the document
  TomlValue value;
  int line = 0;
  /// Set by the validator when it reads this entry; an entry left unset
  /// is an unknown key.
  mutable bool consumed = false;
};

/// One `[name]` or `[[name]]` table with its entries in file order.
struct TomlTable {
  std::string_view name;  // views the document
  bool is_array = false;  // declared with [[name]]
  int line = 0;
  std::span<const TomlKeyValue> entries;  // a slice of TomlDoc::entries

  /// Entry for `key`, or nullptr.
  [[nodiscard]] const TomlValue* find(std::string_view key) const noexcept;
};

/// A parsed document: tables in file order (array tables appear once
/// per [[name]] occurrence). Move-only, since it owns the buffer its
/// views point into.
struct TomlDoc {
  std::string source;  // file name used in diagnostics
  std::unique_ptr<char[]> text;       // the document's bytes
  std::vector<TomlKeyValue> entries;  // every table's entries, in order
  std::vector<TomlTable> tables;

  /// The unique `[name]` table, or nullptr when absent.
  [[nodiscard]] const TomlTable* find_table(std::string_view name) const;
};

/// Parse `text`. `source` is used only for diagnostics ("file.toml" or
/// "<inline>"). Throws sim::SimError(kBadSpec) with file:line detail.
[[nodiscard]] TomlDoc parse_toml(std::string_view text, std::string source);

/// Read and parse a file. Throws sim::SimError(kBadSpec) on I/O failure.
[[nodiscard]] TomlDoc parse_toml_file(const std::string& path);

/// Throw the canonical spec diagnostic: "[bad-spec] spec: " +
/// "<source>:<line>: <detail>". Shared by the parser, the validator,
/// and the compiler so every layer reports locations the same way.
[[noreturn]] void spec_error(const std::string& source, int line,
                             const std::string& detail);

}  // namespace slowcc::spec
