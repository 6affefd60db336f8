#pragma once

// Strict numeric command-line values shared by slowcc_sweep and
// slowcc_spec. Each parser takes the whole string or nothing: no sign
// where none is allowed, no trailing garbage, no silent wrap, so a
// malformed flag is a usage error (exit 2) instead of a run on a
// garbage value.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace slowcc::tools {

/// Parse the leading decimal digits of `text` into `*out`; `*rest`
/// points past them. Returns false unless `text` starts with a digit
/// (no sign, no blank) and the value fits in 64 bits.
inline bool parse_digits(const std::string& text, std::uint64_t* out,
                         const char** rest) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  *out = value;
  *rest = end;
  return true;
}

/// Parse a plain non-negative integer ("100000").
inline bool parse_count(const std::string& text, std::uint64_t* out) {
  const char* rest = nullptr;
  return parse_digits(text, out, &rest) && *rest == '\0';
}

/// Parse a byte count with an optional k/m/g suffix (powers of 1024):
/// "64m" == 67108864. Returns false on a malformed count or one that
/// overflows 64 bits.
inline bool parse_byte_count(const std::string& text, std::uint64_t* out) {
  std::uint64_t base = 0;
  const char* end = nullptr;
  if (!parse_digits(text, &base, &end)) return false;
  int shift = 0;
  if (*end == 'k' || *end == 'K') {
    shift = 10;
  } else if (*end == 'm' || *end == 'M') {
    shift = 20;
  } else if (*end == 'g' || *end == 'G') {
    shift = 30;
  }
  if (shift != 0) ++end;
  if (*end != '\0' || base > (UINT64_MAX >> shift)) return false;
  *out = base << shift;
  return true;
}

/// Parse a finite, non-negative number ("0.5").
inline bool parse_non_negative(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(value) || !(value >= 0.0)) return false;
  *out = value;
  return true;
}

}  // namespace slowcc::tools
