#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/row.hpp"

namespace slowcc::exp {

/// Serialize per-trial rows as JSON-lines (one object per row, in the
/// order given — callers pass rows in trial-id order for stable diffs).
void write_rows_jsonl(std::ostream& out, const std::vector<Row>& rows);

/// Serialize per-trial rows as CSV. The column set is the fixed
/// identity columns plus the union of axis and metric names across all
/// rows; rows missing a metric leave the field empty.
void write_rows_csv(std::ostream& out, const std::vector<Row>& rows);

/// Serialize per-cell aggregates as JSON-lines.
void write_cells_jsonl(std::ostream& out, const std::vector<CellStats>& cells);

/// Serialize per-cell aggregates as CSV: one line per (cell, metric)
/// with n/mean/stddev/ci95/min/p05/p50/p95/max — long format, so the
/// header is stable no matter which metrics an experiment emits.
void write_cells_csv(std::ostream& out, const std::vector<CellStats>& cells);

/// Convenience: render to a string (used by determinism checks, which
/// byte-compare the full serialization of two runs).
[[nodiscard]] std::string rows_to_jsonl(const std::vector<Row>& rows);
[[nodiscard]] std::string cells_to_jsonl(const std::vector<CellStats>& cells);

/// Per-cell execution summary over `rows` — the failure manifest. One
/// JSON line per grid cell, in first-appearance (trial-id) order:
/// cell identity, trial/ok/failed counts, the failed trial ids, the
/// distinct error kinds, and cost meters (attempts, events, wall_ms —
/// the wall meter is the one nondeterministic field, which is why the
/// manifest is never part of a byte-identity check).
void write_manifest_jsonl(std::ostream& out, const std::vector<Row>& rows);
[[nodiscard]] std::string manifest_to_jsonl(const std::vector<Row>& rows);

/// Staging name write_file_atomic uses for `path` in process `pid`
/// with in-process sequence number `seq` (`path + ".tmp.<pid>.<seq>"`).
/// Exposed so the collision properties — distinct pids or distinct
/// sequence numbers never share a staging file — are testable without
/// forking.
[[nodiscard]] std::string atomic_staging_name(const std::string& path,
                                              long pid, std::uint64_t seq);

/// Crash-safe whole-file write: the content goes to a process- and
/// call-unique temporary (see atomic_staging_name — two writers of the
/// same file cannot tear each other's staging copy), is fsync'd, and
/// is renamed over `path`; the parent directory is then fsync'd so a
/// power loss immediately after the rename cannot drop the directory
/// entry on journaling filesystems. A reader (or a
/// resumed sweep) sees either the old file or the complete new one,
/// never a torn prefix. Returns false (with `*error` set) on failure.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     const std::string& content,
                                     std::string* error = nullptr);

/// fsync the directory containing `path` (or `path` itself when it is
/// a directory) so a completed rename/create within it survives a
/// crash. Returns false with `*error` set on failure.
[[nodiscard]] bool fsync_parent_dir(const std::string& path,
                                    std::string* error = nullptr);

/// Append-mode JSONL journal with per-line flush: after `append`
/// returns, the line is in the OS page cache (fflush), so a killed
/// process loses at most the line being written — which the loader
/// below detects as a torn tail.
class JsonlAppender {
 public:
  /// Opens (creating or appending) `path`; throws sim::SimError
  /// (kBadConfig) when the file cannot be opened.
  explicit JsonlAppender(const std::string& path);
  ~JsonlAppender();

  JsonlAppender(const JsonlAppender&) = delete;
  JsonlAppender& operator=(const JsonlAppender&) = delete;

  /// Write `line` plus '\n' and flush. Returns false on write failure.
  bool append(const std::string& line);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Result of loading a JSONL file that may have died mid-append.
struct JsonlLoad {
  bool ok = false;           // file opened and read
  std::vector<std::string> lines;  // complete lines, in file order
  bool torn_tail = false;    // trailing bytes without a newline
  std::string tail;          // those bytes (diagnostics)
  std::string error;         // open/read failure detail
};

/// Load complete lines from `path`, tolerating — and reporting — a
/// trailing partial line from a killed writer instead of failing.
/// A missing file yields ok=false with `error` set (callers treat
/// that as "no checkpoint yet").
[[nodiscard]] JsonlLoad load_jsonl(const std::string& path);

}  // namespace slowcc::exp
