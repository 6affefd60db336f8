#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace slowcc::sim {

/// Machine-readable classification of simulator failures.
///
/// Every throw under `src/` carries one of these codes so harnesses
/// (and the InvariantAuditor) can dispatch on failure class
/// instead of parsing message strings. The taxonomy is documented in
/// README.md and enforced by the `error-taxonomy` rule of slowcc_lint
/// (tools/lint/), which runs as the tier-1 `lint_smoke` ctest.
enum class SimErrc {
  kBadConfig,           // invalid construction or reconfiguration parameter
  kBadSchedule,         // scheduling in the past / negative delay
  kBadTopology,         // port already bound, build-after-finalize, ...
  kInvariantViolation,  // an InvariantAuditor check failed mid-run
  kDeadlineExceeded,    // a per-trial deadline (event budget or wall
                        // clock) turned a hung simulation into an error
  kTrialAborted,        // a trial was cancelled or failed on purpose
                        // (the test-only failure-injecting `poison`
                        // experiment)
  kBadSpec,             // a declarative scenario spec failed to parse,
                        // validate, or compile (src/spec/); the message
                        // carries file:line and the offending key
  kResourceExhausted,   // the ResourceGovernor's per-trial memory model
                        // crossed its hard ceiling; the trial is aborted
                        // before the process can OOM
  // Count sentinel — keep last; never a real code. Every switch over
  // SimErrc must still be exhaustive (-Wswitch under SLOWCC_WERROR),
  // and kAllSimErrcs below is pinned to this count at compile time.
  kCount_,
};

/// Every taxonomy code, in declaration order. The static_assert makes
/// "added an enumerator but not its table entry" a compile error
/// instead of a runtime "unknown" string; the paired to_string switch
/// is kept exhaustive by -Wswitch.
inline constexpr SimErrc kAllSimErrcs[] = {
    SimErrc::kBadConfig,        SimErrc::kBadSchedule,
    SimErrc::kBadTopology,      SimErrc::kInvariantViolation,
    SimErrc::kDeadlineExceeded, SimErrc::kTrialAborted,
    SimErrc::kBadSpec,          SimErrc::kResourceExhausted,
};
static_assert(sizeof(kAllSimErrcs) / sizeof(kAllSimErrcs[0]) ==
                  static_cast<std::size_t>(SimErrc::kCount_),
              "kAllSimErrcs must list every SimErrc exactly once — add "
              "the new code here and to to_string()/README.md");

[[nodiscard]] const char* to_string(SimErrc code) noexcept;

/// Inverse of `to_string`: parse a code token ("deadline-exceeded"),
/// std::nullopt for unknown text. Sweep manifests store codes as their
/// string form; this lets loaders dispatch without a parallel table.
[[nodiscard]] std::optional<SimErrc> errc_from_string(
    std::string_view text) noexcept;

/// Every taxonomy code, in declaration order (for exhaustive tests and
/// documentation generators) — a vector view over kAllSimErrcs.
[[nodiscard]] const std::vector<SimErrc>& all_errcs() noexcept;

/// Structured simulator error: a code, the component that raised it,
/// and a human-readable detail.
///
/// Derives from `std::invalid_argument` (hence `std::logic_error`) so
/// call sites and tests that predate the taxonomy keep working; new
/// code should catch `SimError` and dispatch on `code()`.
class SimError : public std::invalid_argument {
 public:
  SimError(SimErrc code, std::string component, std::string detail);

  [[nodiscard]] SimErrc code() const noexcept { return code_; }
  [[nodiscard]] const std::string& component() const noexcept {
    return component_;
  }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  SimErrc code_;
  std::string component_;
  std::string detail_;
};

}  // namespace slowcc::sim
