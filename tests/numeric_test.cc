#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "numeric/bits.h"
#include "numeric/double_double.h"

namespace tg::numeric {
namespace {

TEST(DoubleDoubleTest, ConstructionAndConversion) {
  DoubleDouble zero;
  EXPECT_EQ(zero.ToDouble(), 0.0);

  DoubleDouble one(1.0);
  EXPECT_EQ(one.ToDouble(), 1.0);

  DoubleDouble x(1.0, 1e-20);
  EXPECT_EQ(x.hi(), 1.0);
  EXPECT_EQ(x.lo(), 1e-20);
}

TEST(DoubleDoubleTest, AdditionIsExactForRepresentableSplits) {
  // 1 + 2^-80 is not representable in a double but is in a double-double.
  DoubleDouble a(1.0);
  DoubleDouble b(std::ldexp(1.0, -80));
  DoubleDouble s = a + b;
  EXPECT_EQ(s.hi(), 1.0);
  EXPECT_EQ(s.lo(), std::ldexp(1.0, -80));
  // Subtracting 1 back recovers the tiny term exactly.
  DoubleDouble diff = s - a;
  EXPECT_EQ(diff.ToDouble(), std::ldexp(1.0, -80));
}

TEST(DoubleDoubleTest, MultiplicationCapturesRoundoff) {
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60; the 2^-60 term is lost in double.
  double eps = std::ldexp(1.0, -30);
  DoubleDouble x = DoubleDouble(1.0) + DoubleDouble(eps);
  DoubleDouble sq = x * x;
  DoubleDouble expected =
      DoubleDouble(1.0) + DoubleDouble(std::ldexp(1.0, -29)) +
      DoubleDouble(std::ldexp(1.0, -60));
  EXPECT_EQ(sq.hi(), expected.hi());
  EXPECT_NEAR(sq.lo(), expected.lo(), std::ldexp(1.0, -106));
}

TEST(DoubleDoubleTest, DivisionRoundTrips) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.1, 10.0);
  for (int i = 0; i < 1000; ++i) {
    DoubleDouble a(dist(rng), dist(rng) * 1e-18);
    DoubleDouble b(dist(rng), dist(rng) * 1e-18);
    DoubleDouble q = a / b;
    DoubleDouble back = q * b;
    // |back - a| should be ~1 ulp of double-double, far below double eps^1.5.
    double err = std::abs((back - a).ToDouble());
    EXPECT_LT(err, 1e-28 * std::abs(a.ToDouble()));
  }
}

TEST(DoubleDoubleTest, ComparisonOrdersByValue) {
  DoubleDouble a(1.0, 0.0);
  DoubleDouble b(1.0, 1e-20);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, DoubleDouble(1.0));
  EXPECT_LT(DoubleDouble(0.5), DoubleDouble(0.75));
}

TEST(DoubleDoubleTest, PrecisionBeyondDouble) {
  // Accumulate 2^20 copies of (2^-70): exact in double-double when added to
  // 1.0, entirely lost in double.
  double tiny = std::ldexp(1.0, -70);
  DoubleDouble acc(1.0);
  double dacc = 1.0;
  for (int i = 0; i < (1 << 20); ++i) {
    acc += DoubleDouble(tiny);
    dacc += tiny;
  }
  EXPECT_EQ(dacc, 1.0);  // double lost everything
  EXPECT_NEAR((acc - DoubleDouble(1.0)).ToDouble(),
              std::ldexp(1.0, -50), std::ldexp(1.0, -80));
}

TEST(DoubleDoubleTest, NegationAndSubtraction) {
  DoubleDouble a(3.5, 1e-18);
  DoubleDouble na = -a;
  EXPECT_EQ(na.hi(), -3.5);
  EXPECT_EQ((a + na).ToDouble(), 0.0);
  EXPECT_EQ((a - a).ToDouble(), 0.0);
}

TEST(BitsTest, PopcountBasics) {
  EXPECT_EQ(Bits(0), 0);
  EXPECT_EQ(Bits(1), 1);
  EXPECT_EQ(Bits(0xFF), 8);
  EXPECT_EQ(Bits(~std::uint64_t{0}), 64);
}

TEST(BitsTest, BitsLowRespectsWidth) {
  EXPECT_EQ(BitsLow(0xFF, 4), 4);
  EXPECT_EQ(BitsLow(0xF0, 4), 0);
  EXPECT_EQ(BitsLow(0xF0, 8), 4);
  EXPECT_EQ(BitsLow(~std::uint64_t{0}, 64), 64);
  EXPECT_EQ(BitsLow(~std::uint64_t{0}, 0), 0);
}

}  // namespace
}  // namespace tg::numeric
