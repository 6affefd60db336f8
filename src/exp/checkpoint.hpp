#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/result_sink.hpp"
#include "exp/row.hpp"
#include "exp/sweep_spec.hpp"

namespace slowcc::exp {

/// Reconstruct a Row from one journal line. The TrialDesc that
/// produced the row supplies what the flat JSON cannot: which numeric
/// keys are grid axes (from the desc) and which are metrics (the
/// rest, in serialization order). Returns false on a malformed line
/// or an identity mismatch (wrong cell for this trial id) — callers
/// treat either as "stale, re-run the trial".
[[nodiscard]] bool parse_row_json(const std::string& line,
                                  const TrialDesc& desc, Row* out);

/// Crash-safe sweep state in one directory.
///
/// Layout:
///   spec.txt       canonical SweepSpec::to_text() — a resume under a
///                  different grid is refused (kBadConfig)
///   policy.txt     runner policy fingerprint — a mismatch only warns
///                  (resuming with, say, a larger deadline is legal,
///                  but previously-journaled rows keep their flags)
///   journal.jsonl  one row JSON line per completed trial, appended
///                  and flushed as trials finish (crash-tolerant;
///                  duplicates allowed, the last valid line per trial
///                  wins)
///   trials.*/cells.*/manifest.jsonl   final outputs, written
///                  atomically (tmp + rename) by finalize()
///
/// The resume contract: re-run exactly the trials with no successful
/// journal row. Successful trials are reconstructed from the journal
/// byte-identically (seeds are cell-attached and the serializer is
/// canonical), so an interrupted sweep, once resumed, produces the
/// same trials/cells files as an uninterrupted run of the same spec,
/// policy, and any --jobs value.
class Checkpoint {
 public:
  explicit Checkpoint(std::string dir);
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Create the directory (if needed), validate or write spec.txt and
  /// policy.txt, and open the journal for appending. Returns true when
  /// an existing journal was found (a resume). Throws sim::SimError
  /// (kBadConfig) on I/O failure or a spec mismatch; a policy mismatch
  /// sets `*policy_warning` instead.
  bool open(const SweepSpec& spec, const std::string& policy_text,
            std::string* policy_warning = nullptr);

  /// Partition of the expansion into recovered and pending work.
  struct Plan {
    std::vector<TrialDesc> pending;  // trials to (re)run, id order
    std::vector<Row> recovered;      // successful journaled rows, id order
    std::size_t journal_lines = 0;   // journal rows inspected
    bool torn_tail = false;          // journal ended mid-line (killed run)
    std::size_t cells_total = 0;
    std::size_t cells_done = 0;  // cells with every trial recovered
  };

  /// Read the journal and split `trials` (the spec's full expansion)
  /// into recovered successes and pending re-runs. Rows match trials
  /// by id; the last line per id wins, and it counts as recovered
  /// only if it parses against its TrialDesc (parse_row_json) and
  /// records a success — a failure row is retried by the resume.
  [[nodiscard]] Plan plan(const std::vector<TrialDesc>& trials) const;

  /// Append one finished row to the journal (call under the runner's
  /// observer mutex — the runner's set_on_row hook does). Returns
  /// false on write failure.
  bool record(const Row& row);

  /// Atomically write trials.{jsonl,csv}, cells.{jsonl,csv}, and
  /// manifest.jsonl (each via tmp + fsync + rename + directory fsync,
  /// so a crash immediately after any rename cannot lose a final).
  /// Returns false with `*error` set on failure.
  [[nodiscard]] bool finalize(const std::vector<Row>& rows,
                              const std::vector<CellStats>& cells,
                              std::string* error = nullptr);

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string path(const std::string& name) const;

 private:
  std::string dir_;
  std::unique_ptr<JsonlAppender> journal_;
};

}  // namespace slowcc::exp
