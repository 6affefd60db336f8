#include "exp/row.hpp"

#include <algorithm>
#include <limits>

#include "exp/serialize.hpp"

namespace slowcc::exp {

double Row::get(std::string_view name) const noexcept {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string Row::to_json() const {
  JsonObjectBuilder o;
  o.add("trial_id", trial_id)
      .add("experiment", experiment)
      .add("algorithm", algorithm)
      .add("cell", cell)
      .add("trial_index", static_cast<std::int64_t>(trial_index))
      .add("seed", seed);
  for (const auto& [k, v] : axes) o.add(k, v);
  for (const auto& [k, v] : metrics) o.add(k, v);
  // Only the deterministic outcome fields appear here; wall_ms/events
  // would break the jobs=1 == jobs=N byte-identity and live in the
  // manifest instead.
  if (outcome.attempts > 1) {
    o.add("attempts", static_cast<std::int64_t>(outcome.attempts));
  }
  if (!error.empty()) {
    o.add("error", error);
    if (!outcome.error_kind.empty()) o.add("error_kind", outcome.error_kind);
    // Peak-usage fields ride only on resource-exhausted rows: they are
    // deterministic (governor model state, not RSS) and let a sweep
    // reader see how far past the budget the trial got.
    if (outcome.error_kind == "resource-exhausted") {
      o.add("peak_live_events", outcome.peak_live_events)
          .add("peak_live_packets", outcome.peak_live_packets)
          .add("peak_queued_bytes", outcome.peak_queued_bytes)
          .add("peak_bytes_estimate", outcome.peak_bytes_estimate);
    }
  }
  return o.str();
}

namespace {

std::vector<std::string> union_names(
    const std::vector<Row>& rows,
    const std::vector<std::pair<std::string, double>> Row::* member) {
  std::vector<std::string> names;
  for (const Row& r : rows) {
    for (const auto& [k, v] : r.*member) {
      (void)v;
      if (std::find(names.begin(), names.end(), k) == names.end()) {
        names.push_back(k);
      }
    }
  }
  return names;
}

}  // namespace

std::vector<std::string> metric_names(const std::vector<Row>& rows) {
  return union_names(rows, &Row::metrics);
}

std::vector<std::string> axis_names(const std::vector<Row>& rows) {
  return union_names(rows, &Row::axes);
}

}  // namespace slowcc::exp
