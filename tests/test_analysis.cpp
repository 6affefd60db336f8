#include <gtest/gtest.h>

#include <cmath>

#include "analysis/aimd_model.hpp"
#include "analysis/convergence_model.hpp"
#include "analysis/fk_model.hpp"
#include "analysis/timeout_model.hpp"
#include "cc/response_function.hpp"

namespace slowcc::analysis {
namespace {

TEST(TimeoutModel, PaperExampleHalfLoss) {
  // p = 1/2: two packets every three RTTs (Appendix A).
  EXPECT_NEAR(aimd_with_timeouts_pkts_per_rtt(0.5), 2.0 / 3.0, 1e-12);
}

TEST(TimeoutModel, HigherLossMeansLowerRate) {
  double prev = 10.0;
  for (double p : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    const double r = aimd_with_timeouts_pkts_per_rtt(p);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(TimeoutModel, MatchesDeterministicDerivation) {
  // p = n/(n+1): n+1 packets over 2^{n+1}-1 RTTs.
  for (int n = 1; n <= 6; ++n) {
    const double p = static_cast<double>(n) / (n + 1);
    const double expected =
        static_cast<double>(n + 1) / (std::pow(2.0, n + 1) - 1.0);
    EXPECT_NEAR(aimd_with_timeouts_pkts_per_rtt(p), expected, 1e-9) << n;
  }
}

TEST(TimeoutModel, CombinedModelContinuousAtBoundaries) {
  const double left = combined_model_pkts_per_rtt(1.0 / 3.0 - 1e-9);
  const double right = combined_model_pkts_per_rtt(1.0 / 3.0 + 1e-9);
  EXPECT_NEAR(left, right, 0.01);
  const double left2 = combined_model_pkts_per_rtt(0.5 - 1e-9);
  const double right2 = combined_model_pkts_per_rtt(0.5 + 1e-9);
  EXPECT_NEAR(left2, right2, 0.01);
}

TEST(TimeoutModel, TimeoutLineBoundsRenoFromAbove) {
  // Appendix A: "AIMD with timeouts" is an upper bound on Reno in the
  // high-loss region; the Padhye formula is the lower bound.
  for (double p : {0.5, 0.6, 0.7}) {
    EXPECT_GT(aimd_with_timeouts_pkts_per_rtt(p), cc::padhye_pkts_per_rtt(p));
  }
}

TEST(TimeoutModel, RejectsOutOfRange) {
  EXPECT_THROW((void)aimd_with_timeouts_pkts_per_rtt(0.0), std::invalid_argument);
  EXPECT_THROW((void)aimd_with_timeouts_pkts_per_rtt(1.0), std::invalid_argument);
  EXPECT_THROW((void)combined_model_pkts_per_rtt(-0.1), std::invalid_argument);
}

TEST(ConvergenceModel, MatchesClosedForm) {
  // log_{1-bp} delta.
  const double acks = expected_acks_to_fairness(0.5, 0.1, 0.1);
  EXPECT_NEAR(acks, std::log(0.1) / std::log(0.95), 1e-9);
}

TEST(ConvergenceModel, SmallerBTakesExponentiallyLonger) {
  const double fast = expected_acks_to_fairness(0.5, 0.1, 0.1);
  const double slow = expected_acks_to_fairness(1.0 / 64.0, 0.1, 0.1);
  EXPECT_GT(slow, 25.0 * fast);
}

TEST(ConvergenceModel, TighterDeltaTakesLonger) {
  EXPECT_GT(expected_acks_to_fairness(0.5, 0.1, 0.01),
            expected_acks_to_fairness(0.5, 0.1, 0.1));
}

TEST(ConvergenceModel, RttConversionDividesByWindow) {
  const double acks = expected_acks_to_fairness(0.5, 0.1, 0.1);
  EXPECT_NEAR(expected_rtts_to_fairness(0.5, 0.1, 0.1, 20.0), acks / 20.0,
              1e-9);
}

TEST(ConvergenceModel, RejectsBadInput) {
  EXPECT_THROW((void)expected_acks_to_fairness(0.0, 0.1, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)expected_acks_to_fairness(0.5, 0.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)expected_acks_to_fairness(0.5, 0.1, 1.5),
               std::invalid_argument);
}

TEST(FkModel, StartsAtHalfAndGrowsLinearly) {
  const auto rtt = sim::Time::millis(50);
  const double lambda = 1250.0;  // 10 Mb/s of 1000-B packets
  const double slope = 1.0 / (4.0 * 0.05 * lambda);  // a/(4 R lambda)
  EXPECT_NEAR(fk_aimd_approximation(1, 1.0, rtt, lambda), 0.5 + slope, 1e-9);
  const double f20 = fk_aimd_approximation(20, 1.0, rtt, lambda);
  const double f40 = fk_aimd_approximation(40, 1.0, rtt, lambda);
  EXPECT_NEAR(f40 - f20, 20.0 * slope, 1e-9);
}

TEST(FkModel, CapsAtFullUtilization) {
  EXPECT_DOUBLE_EQ(
      fk_aimd_approximation(100000, 1.0, sim::Time::millis(50), 10.0), 1.0);
}

TEST(FkModel, SlowerPolicyLowerUtilization) {
  const auto rtt = sim::Time::millis(50);
  EXPECT_LT(fk_aimd_approximation(20, 0.31, rtt, 1250.0),
            fk_aimd_approximation(20, 1.0, rtt, 1250.0));
}

TEST(AimdModel, Responsiveness) {
  EXPECT_NEAR(aimd_responsiveness_rtts(0.5), 1.0, 1e-9);
  // TCP(1/8): (1-1/8)^n = 1/2 -> n ~ 5.19.
  EXPECT_NEAR(aimd_responsiveness_rtts(1.0 / 8.0), 5.19, 0.01);
}

TEST(AimdModel, SmoothnessIsOneMinusB) {
  EXPECT_DOUBLE_EQ(aimd_smoothness(0.5), 0.5);
  EXPECT_DOUBLE_EQ(aimd_smoothness(1.0 / 8.0), 7.0 / 8.0);
}

}  // namespace
}  // namespace slowcc::analysis
