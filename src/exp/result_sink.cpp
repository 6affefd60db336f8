#include "exp/result_sink.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "exp/serialize.hpp"
#include "sim/error.hpp"

namespace slowcc::exp {
namespace {

void csv_number_field(std::ostream& out, double v) {
  if (std::isfinite(v)) out << json_number(v);  // same canonical form
}

}  // namespace

void write_rows_jsonl(std::ostream& out, const std::vector<Row>& rows) {
  for (const Row& r : rows) out << r.to_json() << '\n';
}

void write_rows_csv(std::ostream& out, const std::vector<Row>& rows) {
  const std::vector<std::string> axes = axis_names(rows);
  const std::vector<std::string> metrics = metric_names(rows);
  out << "trial_id,experiment,algorithm,cell,trial_index,seed";
  for (const std::string& a : axes) out << ',' << csv_escape(a);
  for (const std::string& m : metrics) out << ',' << csv_escape(m);
  out << ",attempts,error,error_kind\n";
  for (const Row& r : rows) {
    out << r.trial_id << ',' << csv_escape(r.experiment) << ','
        << csv_escape(r.algorithm) << ',' << csv_escape(r.cell) << ','
        << r.trial_index << ',' << r.seed;
    for (const std::string& a : axes) {
      out << ',';
      for (const auto& [k, v] : r.axes) {
        if (k == a) {
          csv_number_field(out, v);
          break;
        }
      }
    }
    for (const std::string& m : metrics) {
      out << ',';
      csv_number_field(out, r.get(m));
    }
    out << ',' << r.outcome.attempts << ',' << csv_escape(r.error) << ','
        << csv_escape(r.outcome.error_kind) << '\n';
  }
}

void write_cells_jsonl(std::ostream& out,
                       const std::vector<CellStats>& cells) {
  for (const CellStats& c : cells) out << c.to_json() << '\n';
}

void write_cells_csv(std::ostream& out, const std::vector<CellStats>& cells) {
  out << "cell,experiment,algorithm,metric,n,mean,stddev,ci95,min,p05,p50,"
         "p95,max,errors\n";
  for (const CellStats& c : cells) {
    for (const MetricStats& m : c.metrics) {
      out << csv_escape(c.cell) << ',' << csv_escape(c.experiment) << ','
          << csv_escape(c.algorithm) << ',' << csv_escape(m.name) << ','
          << m.n << ',' << json_number(m.mean) << ',' << json_number(m.stddev)
          << ',' << json_number(m.ci95) << ',' << json_number(m.min) << ','
          << json_number(m.p05) << ',' << json_number(m.p50) << ','
          << json_number(m.p95) << ',' << json_number(m.max) << ','
          << c.errors << '\n';
    }
  }
}

std::string rows_to_jsonl(const std::vector<Row>& rows) {
  std::ostringstream out;
  write_rows_jsonl(out, rows);
  return out.str();
}

std::string cells_to_jsonl(const std::vector<CellStats>& cells) {
  std::ostringstream out;
  write_cells_jsonl(out, cells);
  return out.str();
}

void write_manifest_jsonl(std::ostream& out, const std::vector<Row>& rows) {
  struct CellRecord {
    const Row* first = nullptr;
    std::size_t trials = 0;
    std::size_t failed = 0;
    std::string failed_ids;
    std::vector<std::string> kinds;
    std::int64_t attempts = 0;
    std::uint64_t events = 0;
    double wall_ms = 0.0;
  };
  std::vector<std::string> order;
  std::map<std::string, CellRecord> cells;
  for (const Row& r : rows) {
    auto [it, inserted] = cells.try_emplace(r.cell);
    CellRecord& c = it->second;
    if (inserted) {
      c.first = &r;
      order.push_back(r.cell);
    }
    ++c.trials;
    c.attempts += r.outcome.attempts;
    c.events += r.outcome.events;
    c.wall_ms += r.outcome.wall_ms;
    if (!r.error.empty()) {
      ++c.failed;
      if (!c.failed_ids.empty()) c.failed_ids += ',';
      c.failed_ids += std::to_string(r.trial_id);
      const std::string& kind =
          r.outcome.error_kind.empty() ? "exception" : r.outcome.error_kind;
      if (std::find(c.kinds.begin(), c.kinds.end(), kind) == c.kinds.end()) {
        c.kinds.push_back(kind);
      }
    }
  }
  for (const std::string& cell : order) {
    const CellRecord& c = cells.at(cell);
    std::string kinds;
    for (const std::string& k : c.kinds) {
      if (!kinds.empty()) kinds += ',';
      kinds += k;
    }
    JsonObjectBuilder o;
    o.add("cell", cell)
        .add("experiment", c.first->experiment)
        .add("algorithm", c.first->algorithm)
        .add("trials", static_cast<std::uint64_t>(c.trials))
        .add("ok", static_cast<std::uint64_t>(c.trials - c.failed))
        .add("failed", static_cast<std::uint64_t>(c.failed))
        .add("status", c.failed == 0 ? "ok" : "failed");
    if (c.failed > 0) {
      o.add("failed_trial_ids", c.failed_ids).add("error_kinds", kinds);
    }
    o.add("attempts", c.attempts)
        .add("events", c.events)
        .add("wall_ms", c.wall_ms);
    out << o.str() << '\n';
  }
}

std::string manifest_to_jsonl(const std::vector<Row>& rows) {
  std::ostringstream out;
  write_manifest_jsonl(out, rows);
  return out.str();
}

namespace {

/// Write all of `content` to `fd`, retrying partial writes and EINTR.
bool write_all(int fd, const std::string& content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Directory holding `path` ("." for a bare filename).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool fsync_parent_dir(const std::string& path, std::string* error) {
  std::error_code ec;
  const std::string dir = std::filesystem::is_directory(path, ec)
                              ? path
                              : parent_dir(path);
  // slowcc-lint: allow(no-unguarded-shared-write) this IS the sanctioned durability helper (read-only open of the directory)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    if (error) *error = "cannot open directory for fsync: " + dir;
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok && error) *error = "fsync failed on directory: " + dir;
  return ok;
}

std::string atomic_staging_name(const std::string& path, long pid,
                                std::uint64_t seq) {
  return path + ".tmp." + std::to_string(pid) + "." + std::to_string(seq);
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* error) {
  // Pid+sequence staging name: two writers of the same file must not
  // truncate each other's tmp mid-write — the pid separates processes
  // (two sweeps pointed at one directory), the counter separates
  // threads that share one.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = atomic_staging_name(
      path, static_cast<long>(::getpid()), seq.fetch_add(1));
  // slowcc-lint: allow(no-unguarded-shared-write) this IS the sanctioned tmp+fsync+rename helper
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error) *error = "cannot open " + tmp;
    return false;
  }
  if (!write_all(fd, content) || ::fsync(fd) != 0) {
    if (error) *error = "write failed: " + tmp;
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error) *error = "rename " + tmp + " -> " + path + ": " + ec.message();
    std::filesystem::remove(tmp, ec);
    return false;
  }
  // Persist the rename itself: without the directory fsync a crash
  // right here can roll the directory entry back to the old file (or
  // to nothing, for a first write) on journaling filesystems.
  return fsync_parent_dir(path, error);
}

JsonlAppender::JsonlAppender(const std::string& path) : path_(path) {
  // slowcc-lint: allow(no-unguarded-shared-write) this IS the sanctioned append+flush journal primitive
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "JsonlAppender",
                        "cannot open journal for append: " + path);
  }
}

JsonlAppender::~JsonlAppender() {
  if (file_ != nullptr) std::fclose(file_);
}

bool JsonlAppender::append(const std::string& line) {
  if (file_ == nullptr) return false;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return false;
  }
  if (std::fputc('\n', file_) == EOF) return false;
  return std::fflush(file_) == 0;
}

JsonlLoad load_jsonl(const std::string& path) {
  JsonlLoad out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open " + path;
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  out.ok = true;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      // A writer died mid-append: keep what is complete, report the
      // rest instead of failing the whole load.
      out.torn_tail = true;
      out.tail = text.substr(start);
      break;
    }
    out.lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

}  // namespace slowcc::exp
