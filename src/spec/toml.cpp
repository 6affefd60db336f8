#include "spec/toml.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>

#include "sim/error.hpp"

namespace slowcc::spec {

namespace {

bool is_bare_key_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

bool is_blank(char c) noexcept { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view strip(std::string_view s) noexcept {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_blank(s.back())) s.remove_suffix(1);
  return s;
}

// Cursor over one logical line's value text. Scalars never span lines,
// so a per-line cursor keeps diagnostics trivially accurate. The text
// is the document's own buffer: strings are unescaped where they lie.
struct ValueCursor {
  char* text;
  std::size_t size;
  std::size_t pos = 0;
  const std::string& source;
  int line;

  [[nodiscard]] bool done() const noexcept { return pos >= size; }
  [[nodiscard]] char peek() const noexcept { return text[pos]; }

  void skip_space() noexcept {
    while (!done() && (peek() == ' ' || peek() == '\t')) ++pos;
  }
};

TomlValue parse_string(ValueCursor& cur) {
  TomlValue v;
  v.kind = TomlValue::Kind::kString;
  v.line = cur.line;
  ++cur.pos;  // opening quote
  // Decoded bytes overwrite the literal from its start: an escape is
  // two bytes in and one out, so the write never passes the read.
  char* const out = cur.text + cur.pos;
  std::size_t n = 0;
  while (true) {
    if (cur.done()) {
      spec_error(cur.source, cur.line, "unterminated string");
    }
    const char c = cur.text[cur.pos++];
    if (c == '"') {
      v.text = std::string_view(out, n);
      return v;
    }
    if (c == '\\') {
      if (cur.done()) {
        spec_error(cur.source, cur.line, "unterminated string escape");
      }
      const char e = cur.text[cur.pos++];
      switch (e) {
        case '"': out[n++] = '"'; break;
        case '\\': out[n++] = '\\'; break;
        case 'n': out[n++] = '\n'; break;
        case 't': out[n++] = '\t'; break;
        case 'r': out[n++] = '\r'; break;
        default:
          spec_error(cur.source, cur.line,
                     std::string("unsupported string escape '\\") + e + "'");
      }
      continue;
    }
    out[n++] = c;
  }
}

TomlValue parse_number_or_bool(ValueCursor& cur) {
  const std::size_t start = cur.pos;
  while (!cur.done() && cur.peek() != ',' && cur.peek() != ']' &&
         cur.peek() != ' ' && cur.peek() != '\t' && cur.peek() != '#') {
    ++cur.pos;
  }
  const std::string_view token(cur.text + start, cur.pos - start);
  TomlValue v;
  v.line = cur.line;
  if (token == "true" || token == "false") {
    v.kind = TomlValue::Kind::kBool;
    v.boolean = (token == "true");
    return v;
  }
  if (token.empty()) {
    spec_error(cur.source, cur.line, "expected a value");
  }
  // std::from_chars reads the literal where it lies. It takes no '+'
  // sign, so one is skipped here (but not in "+-3").
  const char* first = token.data();
  const char* const last = first + token.size();
  if (token.size() > 1 && token[0] == '+' && token[1] != '-' &&
      token[1] != '+') {
    ++first;
  }
  // Integer first ("-3" is integral; "3.5" and "3e2" are floats).
  if (token.find_first_of(".eE") == std::string_view::npos) {
    std::int64_t parsed = 0;
    const auto [end, ec] = std::from_chars(first, last, parsed);
    if (end == last && ec == std::errc::result_out_of_range) {
      spec_error(cur.source, cur.line,
                 "integer '" + std::string(token) +
                     "' does not fit in 64 bits");
    }
    if (end == last && ec == std::errc()) {
      v.kind = TomlValue::Kind::kInteger;
      v.integer = parsed;
      v.number = static_cast<double>(parsed);
      return v;
    }
  }
  double parsed = 0.0;
  const auto [end, ec] = std::from_chars(first, last, parsed);
  if (end == last && ec == std::errc::result_out_of_range) {
    spec_error(cur.source, cur.line,
               "float '" + std::string(token) + "' is out of range");
  }
  if (end == last && ec == std::errc()) {
    v.kind = TomlValue::Kind::kFloat;
    v.number = parsed;
    return v;
  }
  spec_error(cur.source, cur.line,
             "unrecognized value '" + std::string(token) +
                 "' (expected integer, float, bool, \"string\", or [array])");
}

TomlValue parse_value(ValueCursor& cur);  // fwd (arrays recurse)

TomlValue parse_array(ValueCursor& cur) {
  TomlValue v;
  v.kind = TomlValue::Kind::kArray;
  v.line = cur.line;
  ++cur.pos;  // '['
  cur.skip_space();
  if (!cur.done() && cur.peek() == ']') {
    ++cur.pos;
    return v;
  }
  while (true) {
    cur.skip_space();
    if (cur.done()) {
      spec_error(cur.source, cur.line, "unterminated array");
    }
    if (cur.peek() == '[') {
      spec_error(cur.source, cur.line,
                 "nested arrays are not supported in scenario specs");
    }
    v.array.push_back(parse_value(cur));
    cur.skip_space();
    if (cur.done()) {
      spec_error(cur.source, cur.line, "unterminated array");
    }
    if (cur.peek() == ',') {
      ++cur.pos;
      cur.skip_space();
      if (!cur.done() && cur.peek() == ']') {  // trailing comma ok
        ++cur.pos;
        return v;
      }
      continue;
    }
    if (cur.peek() == ']') {
      ++cur.pos;
      return v;
    }
    spec_error(cur.source, cur.line,
               "expected ',' or ']' in array");
  }
}

TomlValue parse_value(ValueCursor& cur) {
  cur.skip_space();
  if (cur.done()) {
    spec_error(cur.source, cur.line, "expected a value after '='");
  }
  if (cur.peek() == '"') return parse_string(cur);
  if (cur.peek() == '[') return parse_array(cur);
  return parse_number_or_bool(cur);
}

// Table header line: the validated name inside the brackets.
std::string_view parse_table_header(std::string_view body,
                                    const std::string& source, int line) {
  body = strip(body);
  if (body.empty()) {
    spec_error(source, line, "empty table name");
  }
  for (const char c : body) {
    if (c == '.') {
      spec_error(source, line,
                 "dotted table name '" + std::string(body) +
                     "' is not supported (use flat [tables])");
    }
    if (!is_bare_key_char(c)) {
      spec_error(source, line,
                 "invalid character '" + std::string(1, c) +
                     "' in table name '" + std::string(body) + "'");
    }
  }
  return body;
}

// Parse the `size` bytes in doc.text into doc.tables and doc.entries.
void parse_document(TomlDoc& doc, std::size_t size) {
  char* const buf = doc.text.get();
  const std::string_view text(buf, size);

  // A line holds at most one table or entry: sized to the line count,
  // neither array grows while it is filled.
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  doc.tables.reserve(lines);
  doc.entries.reserve(lines);

  std::size_t current_first = 0;  // the last table's first entry index
  int line_no = 0;
  // Lines end at '\n'; a final newline opens no further line, but an
  // empty text is one line.
  std::size_t offset = 0;
  do {
    const std::size_t nl = text.find('\n', offset);
    const std::size_t end = nl == std::string_view::npos ? size : nl;
    std::string_view raw = text.substr(offset, end - offset);
    offset = end + 1;
    ++line_no;
    const std::size_t first = raw.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || raw[first] == '#') continue;

    // Strip comments — but not inside a string literal.
    bool in_string = false;
    bool escaped = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      if (escaped) {
        escaped = false;
        continue;
      }
      if (in_string && c == '\\') {
        escaped = true;
        continue;
      }
      if (c == '"') in_string = !in_string;
      if (c == '#' && !in_string) {
        raw = raw.substr(0, i);
        break;
      }
    }

    const std::string_view stripped = strip(raw);
    if (stripped.empty()) continue;

    if (stripped.front() == '[') {
      const bool is_array =
          stripped.size() >= 2 && stripped[1] == '[';
      const std::string_view open = is_array ? stripped.substr(2)
                                             : stripped.substr(1);
      const std::string_view closer = is_array ? "]]" : "]";
      if (open.size() < closer.size() ||
          open.substr(open.size() - closer.size()) != closer) {
        spec_error(doc.source, line_no,
                   "malformed table header '" + std::string(stripped) + "'");
      }
      const std::string_view name = parse_table_header(
          open.substr(0, open.size() - closer.size()), doc.source, line_no);
      // A name must be consistently [t] or [[t]] across the file, and a
      // plain [t] may appear only once.
      for (const auto& t : doc.tables) {
        if (t.name != name) continue;
        const std::string n(name);
        if (t.is_array != is_array) {
          spec_error(doc.source, line_no,
                     "table '" + n + "' declared both as [" + n +
                         "] and [[" + n + "]]");
        }
        if (!is_array) {
          spec_error(doc.source, line_no,
                     "duplicate table [" + n + "] (first at line " +
                         std::to_string(t.line) + ")");
        }
      }
      TomlTable& table = doc.tables.emplace_back();
      table.name = name;
      table.is_array = is_array;
      table.line = line_no;
      current_first = doc.entries.size();
      continue;
    }

    // key = value
    const std::size_t eq = [&] {
      bool in_str = false;
      for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (stripped[i] == '"') in_str = !in_str;
        if (stripped[i] == '=' && !in_str) return i;
      }
      return std::string_view::npos;
    }();
    if (eq == std::string_view::npos) {
      spec_error(doc.source, line_no,
                 "expected 'key = value' or a [table] header, got '" +
                     std::string(stripped) + "'");
    }
    const std::string_view key = strip(stripped.substr(0, eq));
    if (key.empty()) {
      spec_error(doc.source, line_no, "missing key before '='");
    }
    for (const char c : key) {
      if (c == '.') {
        spec_error(doc.source, line_no,
                   "dotted key '" + std::string(key) + "' is not supported");
      }
      if (!is_bare_key_char(c)) {
        spec_error(doc.source, line_no,
                   "invalid character '" + std::string(1, c) + "' in key '" +
                       std::string(key) + "'");
      }
    }
    if (doc.tables.empty()) {
      spec_error(doc.source, line_no,
                 "key '" + std::string(key) +
                     "' appears before any [table] header");
    }
    for (std::size_t i = current_first; i < doc.entries.size(); ++i) {
      if (doc.entries[i].key == key) {
        spec_error(doc.source, line_no,
                   "duplicate key '" + std::string(key) + "' in [" +
                       std::string(doc.tables.back().name) + "]");
      }
    }

    const std::string_view value = strip(stripped.substr(eq + 1));
    ValueCursor cur{buf + (value.data() - buf), value.size(), 0, doc.source,
                    line_no};
    TomlKeyValue& kv = doc.entries.emplace_back();
    kv.key = key;
    kv.line = line_no;
    kv.value = parse_value(cur);
    cur.skip_space();
    if (!cur.done()) {
      spec_error(doc.source, line_no,
                 "trailing garbage after value for key '" + std::string(key) +
                     "'");
    }
  } while (offset < size);

  // Each table's entries are the run of lines up to the next header.
  const std::span<const TomlKeyValue> all(doc.entries);
  std::size_t next = 0;
  for (std::size_t t = 0; t < doc.tables.size(); ++t) {
    const std::size_t first = next;
    while (next < all.size() &&
           (t + 1 == doc.tables.size() ||
            all[next].line < doc.tables[t + 1].line)) {
      ++next;
    }
    doc.tables[t].entries = all.subspan(first, next - first);
  }
}

/// Closes a file descriptor when it leaves scope.
struct FileDescriptor {
  int fd;
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

const TomlValue* TomlTable::find(std::string_view key) const noexcept {
  for (const auto& kv : entries) {
    if (kv.key == key) return &kv.value;
  }
  return nullptr;
}

const TomlTable* TomlDoc::find_table(std::string_view name) const {
  for (const auto& t : tables) {
    if (t.name == name && !t.is_array) return &t;
  }
  return nullptr;
}

void spec_error(const std::string& source, int line,
                const std::string& detail) {
  throw sim::SimError(sim::SimErrc::kBadSpec, "spec",
                      source + ":" + std::to_string(line) + ": " + detail);
}

TomlDoc parse_toml(std::string_view text, std::string source) {
  TomlDoc doc;
  doc.source = std::move(source);
  doc.text = std::make_unique_for_overwrite<char[]>(text.size());
  std::copy(text.begin(), text.end(), doc.text.get());
  parse_document(doc, text.size());
  return doc;
}

TomlDoc parse_toml_file(const std::string& path) {
  const auto fail = [&](const char* what) {
    throw sim::SimError(sim::SimErrc::kBadSpec, "spec", path + ": " + what);
  };
  const FileDescriptor file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) fail("cannot open spec file");
  // A regular file is read into a buffer of its size (plus the byte
  // that lets the next read see the end); anything else grows one.
  struct stat st {};
  std::size_t capacity = 4096;
  if (::fstat(file.fd, &st) == 0 && S_ISREG(st.st_mode)) {
    capacity = static_cast<std::size_t>(st.st_size) + 1;
  }
  TomlDoc doc;
  doc.source = path;
  doc.text = std::make_unique_for_overwrite<char[]>(capacity);
  std::size_t size = 0;
  while (true) {
    if (size == capacity) {
      auto grown = std::make_unique_for_overwrite<char[]>(capacity * 2);
      std::copy(doc.text.get(), doc.text.get() + size, grown.get());
      doc.text = std::move(grown);
      capacity *= 2;
    }
    const ssize_t got = ::read(file.fd, doc.text.get() + size, capacity - size);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("cannot read spec file");
    }
    size += static_cast<std::size_t>(got);
  }
  parse_document(doc, size);
  return doc;
}

}  // namespace slowcc::spec
