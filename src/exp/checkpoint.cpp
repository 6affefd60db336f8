#include "exp/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "exp/serialize.hpp"
#include "sim/error.hpp"

namespace slowcc::exp {
namespace {

[[noreturn]] void bad(const std::string& detail) {
  throw sim::SimError(sim::SimErrc::kBadConfig, "Checkpoint", detail);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

bool parse_row_json(const std::string& line, const TrialDesc& desc,
                    Row* out) {
  std::vector<std::pair<std::string, JsonScalar>> fields;
  if (!parse_flat_json(line, fields)) return false;

  // Axis keys for this trial, in the order run_trial() stamps them.
  std::vector<std::string> axis_keys;
  if (desc.bandwidth_bps > 0) axis_keys.push_back("bandwidth_mbps");
  if (desc.rtt_ms > 0) axis_keys.push_back("rtt_ms");
  for (const auto& [k, v] : desc.params) {
    (void)v;
    axis_keys.push_back(k);
  }

  Row row;
  row.outcome.attempts = 1;
  bool saw_trial_id = false;
  for (const auto& [key, value] : fields) {
    if (key == "trial_id") {
      row.trial_id = value.as_u64();
      saw_trial_id = true;
    } else if (key == "experiment") {
      row.experiment = value.text;
    } else if (key == "algorithm") {
      row.algorithm = value.text;
    } else if (key == "cell") {
      row.cell = value.text;
    } else if (key == "trial_index") {
      row.trial_index = static_cast<int>(value.number);
    } else if (key == "seed") {
      row.seed = value.as_u64();
    } else if (key == "attempts") {
      row.outcome.attempts = static_cast<int>(value.number);
    } else if (key == "error") {
      row.error = value.text;
      row.outcome.ok = false;
    } else if (key == "error_kind") {
      row.outcome.error_kind = value.text;
    } else if (key == "peak_live_events") {
      row.outcome.peak_live_events = value.as_u64();
    } else if (key == "peak_live_packets") {
      row.outcome.peak_live_packets = value.as_u64();
    } else if (key == "peak_queued_bytes") {
      row.outcome.peak_queued_bytes = value.as_u64();
    } else if (key == "peak_bytes_estimate") {
      row.outcome.peak_bytes_estimate = value.as_u64();
    } else if (std::find(axis_keys.begin(), axis_keys.end(), key) !=
               axis_keys.end()) {
      row.set_axis(key, value.number);
    } else {
      row.set(key, value.number);
    }
  }
  if (!saw_trial_id) return false;
  // Identity must agree with the descriptor this id maps to now —
  // anything else is a stale journal from a different grid.
  if (row.trial_id != desc.trial_id || row.cell != desc.cell_key() ||
      row.trial_index != desc.trial_index) {
    return false;
  }
  *out = std::move(row);
  return true;
}

Checkpoint::Checkpoint(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) bad("empty checkpoint directory");
}

Checkpoint::~Checkpoint() = default;

std::string Checkpoint::path(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string Checkpoint::journal_path() const { return path("journal.jsonl"); }

bool Checkpoint::open(const SweepSpec& spec, const std::string& policy_text,
                      std::string* policy_warning) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) bad("cannot create " + dir_ + ": " + ec.message());

  const std::string spec_text = spec.to_text();
  const std::string spec_path = path("spec.txt");
  if (std::filesystem::exists(spec_path)) {
    const std::string existing = read_file(spec_path);
    if (existing != spec_text) {
      bad("resume refused: " + spec_path +
          " holds a different sweep spec than this invocation (start a "
          "fresh directory or re-run with the original grid)");
    }
  } else {
    std::string err;
    if (!write_file_atomic(spec_path, spec_text, &err)) bad(err);
  }

  const std::string policy_path = path("policy.txt");
  if (std::filesystem::exists(policy_path)) {
    const std::string existing = read_file(policy_path);
    if (existing != policy_text && policy_warning != nullptr) {
      *policy_warning =
          "runner policy changed since the checkpoint was created "
          "(recorded rows keep the old policy's budgets)";
    }
  }
  // Always record the latest policy.
  std::string err;
  if (!write_file_atomic(policy_path, policy_text, &err)) bad(err);

  const bool resuming = std::filesystem::exists(journal_path());
  journal_ = std::make_unique<JsonlAppender>(journal_path());
  return resuming;
}

Checkpoint::Plan Checkpoint::plan(
    const std::vector<TrialDesc>& trials) const {
  const JsonlLoad journal = load_jsonl(journal_path());
  Plan plan;
  plan.journal_lines = journal.lines.size();
  plan.torn_tail = journal.torn_tail;

  // Last journal line per trial id wins (a resume appends re-runs
  // after the failures they replace).
  std::map<std::uint64_t, const std::string*> latest;
  for (const std::string& line : journal.lines) {
    std::vector<std::pair<std::string, JsonScalar>> fields;
    if (!parse_flat_json(line, fields)) continue;
    for (const auto& [key, value] : fields) {
      if (key == "trial_id") {
        latest[value.as_u64()] = &line;
        break;
      }
    }
  }
  for (const TrialDesc& d : trials) {
    Row row;
    const auto it = latest.find(d.trial_id);
    if (it != latest.end() && parse_row_json(*it->second, d, &row) &&
        row.outcome.ok) {
      plan.recovered.push_back(std::move(row));
    } else {
      plan.pending.push_back(d);
    }
  }

  std::map<std::string, std::pair<std::size_t, std::size_t>> cells;
  for (const TrialDesc& d : trials) ++cells[d.cell_key()].first;
  for (const Row& r : plan.recovered) ++cells[r.cell].second;
  plan.cells_total = cells.size();
  for (const auto& [cell, counts] : cells) {
    (void)cell;
    if (counts.second == counts.first) ++plan.cells_done;
  }
  return plan;
}

bool Checkpoint::record(const Row& row) {
  return journal_ != nullptr && journal_->append(row.to_json());
}

bool Checkpoint::finalize(const std::vector<Row>& rows,
                          const std::vector<CellStats>& cells,
                          std::string* error) {
  std::ostringstream tj, tc, cj, cc, mf;
  write_rows_jsonl(tj, rows);
  write_rows_csv(tc, rows);
  write_cells_jsonl(cj, cells);
  write_cells_csv(cc, cells);
  write_manifest_jsonl(mf, rows);
  return write_file_atomic(path("trials.jsonl"), tj.str(), error) &&
         write_file_atomic(path("trials.csv"), tc.str(), error) &&
         write_file_atomic(path("cells.jsonl"), cj.str(), error) &&
         write_file_atomic(path("cells.csv"), cc.str(), error) &&
         write_file_atomic(path("manifest.jsonl"), mf.str(), error);
}

}  // namespace slowcc::exp
