#include "subsim/util/math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace subsim {
namespace {

TEST(LogFactorialTest, SmallValuesMatchDirectComputation) {
  EXPECT_NEAR(LogFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-9);
  EXPECT_NEAR(LogFactorial(10), std::log(3628800.0), 1e-9);
}

TEST(LogNChooseKTest, MatchesExactBinomials) {
  EXPECT_NEAR(LogNChooseK(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogNChooseK(10, 5), std::log(252.0), 1e-9);
  EXPECT_NEAR(LogNChooseK(52, 5), std::log(2598960.0), 1e-6);
}

TEST(LogNChooseKTest, BoundaryCasesAreZero) {
  EXPECT_DOUBLE_EQ(LogNChooseK(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(LogNChooseK(7, 7), 0.0);
  EXPECT_DOUBLE_EQ(LogNChooseK(0, 0), 0.0);
}

TEST(LogNChooseKTest, SymmetricInK) {
  EXPECT_NEAR(LogNChooseK(100, 30), LogNChooseK(100, 70), 1e-8);
}

TEST(LogNChooseKTest, LargeArgumentsStayFinite) {
  const double v = LogNChooseK(1000000, 2000);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(v, 0.0);
}

TEST(PowOneMinusInvKTest, KnownValues) {
  EXPECT_DOUBLE_EQ(PowOneMinusInvK(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(PowOneMinusInvK(1, 5), 0.0);  // (1-1)^5
  EXPECT_NEAR(PowOneMinusInvK(2, 3), 0.125, 1e-12);
  EXPECT_NEAR(PowOneMinusInvK(4, 2), 0.5625, 1e-12);
}

TEST(PowOneMinusInvKTest, ApproachesInvEAtBEqualsK) {
  // (1 - 1/k)^k -> 1/e as k grows.
  EXPECT_NEAR(PowOneMinusInvK(1000, 1000), 1.0 / std::exp(1.0), 1e-3);
}

TEST(HistApproxTargetTest, MatchesDefinition) {
  const double target = HistApproxTarget(10, 3, 0.05);
  EXPECT_NEAR(target, 1.0 - std::pow(0.9, 3) - 0.05, 1e-12);
}

TEST(HistApproxTargetTest, FullBudgetApproachesClassicRatio) {
  // b == k and large k: 1 - (1-1/k)^k - eps ~ 1 - 1/e - eps.
  EXPECT_NEAR(HistApproxTarget(100000, 100000, 0.1),
              kOneMinusInvE - 0.1, 1e-4);
}

TEST(NextPowerOfTwoTest, Values) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1023), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

class PowOneMinusInvKSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>> {};

TEST_P(PowOneMinusInvKSweep, AgreesWithStdPow) {
  const auto [k, b] = GetParam();
  const double expected =
      std::pow(1.0 - 1.0 / static_cast<double>(k), static_cast<double>(b));
  EXPECT_NEAR(PowOneMinusInvK(k, b), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PowOneMinusInvKSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 3, 10, 100, 5000),
                       ::testing::Values<std::uint64_t>(0, 1, 2, 7, 50)));

}  // namespace
}  // namespace subsim
