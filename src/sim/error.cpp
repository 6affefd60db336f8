#include "sim/error.hpp"

#include <iterator>

namespace slowcc::sim {

const char* to_string(SimErrc code) noexcept {
  switch (code) {
    case SimErrc::kBadConfig:
      return "bad-config";
    case SimErrc::kBadSchedule:
      return "bad-schedule";
    case SimErrc::kBadTopology:
      return "bad-topology";
    case SimErrc::kInvariantViolation:
      return "invariant-violation";
    case SimErrc::kDeadlineExceeded:
      return "deadline-exceeded";
    case SimErrc::kTrialAborted:
      return "trial-aborted";
    case SimErrc::kBadSpec:
      return "bad-spec";
    case SimErrc::kResourceExhausted:
      return "resource-exhausted";
    case SimErrc::kCount_:
      break;  // sentinel, never constructed
  }
  return "?";
}

const std::vector<SimErrc>& all_errcs() noexcept {
  static const std::vector<SimErrc> kAll(std::begin(kAllSimErrcs),
                                         std::end(kAllSimErrcs));
  return kAll;
}

std::optional<SimErrc> errc_from_string(std::string_view text) noexcept {
  for (const SimErrc code : all_errcs()) {
    if (text == to_string(code)) return code;
  }
  return std::nullopt;
}

namespace {

std::string format_what(SimErrc code, const std::string& component,
                        const std::string& detail) {
  // Appended piecewise: `"literal" + std::string&&` trips a GCC 12
  // -Wrestrict false positive in Release builds.
  std::string what = "[";
  what += to_string(code);
  what += "] ";
  what += component;
  what += ": ";
  what += detail;
  return what;
}

}  // namespace

SimError::SimError(SimErrc code, std::string component, std::string detail)
    : std::invalid_argument(format_what(code, component, detail)),
      code_(code),
      component_(std::move(component)),
      detail_(std::move(detail)) {}

}  // namespace slowcc::sim
