#include "analysis/aimd_model.hpp"

#include <cmath>

#include "sim/error.hpp"

namespace slowcc::analysis {

double aimd_responsiveness_rtts(double b) {
  if (b <= 0.0 || b >= 1.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "responsiveness",
                        "b must be in (0, 1)");
  }
  // After n decreases the rate is (1-b)^n of the original; solve
  // (1-b)^n = 1/2.
  return std::log(0.5) / std::log(1.0 - b);
}

double aimd_smoothness(double b) {
  if (b <= 0.0 || b >= 1.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "smoothness",
                        "b must be in (0, 1)");
  }
  return 1.0 - b;
}

}  // namespace slowcc::analysis
