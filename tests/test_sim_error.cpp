// SimError taxonomy: every code has a stable string form, the string
// form parses back to the code, and what() carries the structured
// [code] component: detail shape downstream tools grep for.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/error.hpp"

namespace slowcc::sim {
namespace {

TEST(SimError, EveryCodeRoundTripsThroughItsString) {
  for (const SimErrc code : all_errcs()) {
    const std::string text = to_string(code);
    EXPECT_NE(text, "?") << "unnamed error code";
    const auto parsed = errc_from_string(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, code) << text;
  }
}

TEST(SimError, CodeStringsAreDistinct) {
  std::set<std::string> seen;
  for (const SimErrc code : all_errcs()) {
    EXPECT_TRUE(seen.insert(to_string(code)).second)
        << "duplicate string: " << to_string(code);
  }
}

TEST(SimError, TaxonomyIncludesTheDeadlineAndAbortCodes) {
  EXPECT_STREQ(to_string(SimErrc::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(to_string(SimErrc::kTrialAborted), "trial-aborted");
  EXPECT_EQ(errc_from_string("deadline-exceeded"),
            SimErrc::kDeadlineExceeded);
  EXPECT_EQ(errc_from_string("trial-aborted"), SimErrc::kTrialAborted);
}

TEST(SimError, SpecCodeRoundTrips) {
  EXPECT_STREQ(to_string(SimErrc::kBadSpec), "bad-spec");
  EXPECT_EQ(errc_from_string("bad-spec"), SimErrc::kBadSpec);
}

TEST(SimError, ResourceCodeRoundTrips) {
  EXPECT_STREQ(to_string(SimErrc::kResourceExhausted),
               "resource-exhausted");
  EXPECT_EQ(errc_from_string("resource-exhausted"),
            SimErrc::kResourceExhausted);
}

TEST(SimError, TaxonomyListIsExhaustiveAndExcludesTheSentinel) {
  // The compile-time side: kAllSimErrcs is static_assert-pinned to the
  // kCount_ sentinel, so a new enumerator cannot be forgotten. Here we
  // pin the runtime view to the same array and verify no code ever
  // stringifies to the "unknown" fallback.
  ASSERT_EQ(all_errcs().size(),
            static_cast<std::size_t>(SimErrc::kCount_));
  std::size_t i = 0;
  for (const SimErrc code : all_errcs()) {
    EXPECT_EQ(code, kAllSimErrcs[i]) << i;
    EXPECT_NE(code, SimErrc::kCount_);
    EXPECT_STRNE(to_string(code), "?");
    ++i;
  }
  EXPECT_STREQ(to_string(SimErrc::kCount_), "?");  // sentinel only
}

TEST(SimError, UnknownStringParsesToNothing) {
  EXPECT_FALSE(errc_from_string("").has_value());
  EXPECT_FALSE(errc_from_string("deadline").has_value());
  EXPECT_FALSE(errc_from_string("Deadline-Exceeded").has_value());
}

TEST(SimError, WhatCarriesCodeComponentAndDetail) {
  const SimError e(SimErrc::kTrialAborted, "poison", "boom (trial 3)");
  EXPECT_EQ(e.code(), SimErrc::kTrialAborted);
  EXPECT_EQ(e.component(), "poison");
  EXPECT_EQ(e.detail(), "boom (trial 3)");
  EXPECT_STREQ(e.what(), "[trial-aborted] poison: boom (trial 3)");
}

}  // namespace
}  // namespace slowcc::sim
