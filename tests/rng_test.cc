#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "rng/alias_table.h"
#include "rng/lane_rng.h"
#include "rng/random.h"

namespace tg::rng {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Pcg64Test, DeterministicGivenSeedAndStream) {
  Pcg64 a(42, 7), b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg64Test, StreamsAreIndependent) {
  Pcg64 a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanAndVariance) {
  Rng rng(5);
  const int n = 1 << 20;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextDouble();
    sum += x;
    sumsq += x * x;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.002);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(RngTest, NextBoundedIsInRangeAndRoughlyUniform) {
  Rng rng(17);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    std::uint64_t x = rng.NextBounded(bound);
    ASSERT_LT(x, bound);
    ++counts[x];
  }
  // Chi-square with 9 dof; 99.9% critical value ~27.9.
  double chi2 = 0;
  double expected = static_cast<double>(n) / bound;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(RngTest, NextBoundedHandlesNonPowerOfTwoBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 3ULL, 7ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 1 << 20;
  double sum = 0, sumsq = 0, sumcube = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sumsq += x * x;
    sumcube += x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sumsq / n, 1.0, 0.01);
  EXPECT_NEAR(sumcube / n, 0.0, 0.05);  // symmetry
}

TEST(RngTest, GaussianTailProbability) {
  Rng rng(13);
  const int n = 1 << 20;
  int beyond2 = 0;
  for (int i = 0; i < n; ++i) {
    if (std::abs(rng.NextGaussian()) > 2.0) ++beyond2;
  }
  // P(|Z| > 2) ~ 4.55%.
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.004);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng root(42);
  Rng a = root.Fork(0);
  Rng b = root.Fork(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, ForkIsDeterministicAndStable) {
  Rng root(42);
  Rng a1 = root.Fork(123);
  Rng a2 = root.Fork(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.NextUint64(), a2.NextUint64());
}

TEST(RngTest, ForkIndependentOfRootConsumption) {
  // Forking must not depend on how much the root has been consumed, so that
  // per-scope streams are stable regardless of worker scheduling.
  Rng root1(42);
  Rng root2(42);
  root2.NextUint64();
  root2.NextUint64();
  Rng f1 = root1.Fork(9);
  Rng f2 = root2.Fork(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f1.NextUint64(), f2.NextUint64());
}

TEST(RngTest, DoubleRangeOverload) {
  Rng rng(21);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(AliasTableTest, MatchesWeightsByChiSquare) {
  std::vector<double> weights = {1, 4, 2, 0.5, 2.5};
  AliasTable table(weights);
  Rng rng(31);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  double total = 10.0;
  double chi2 = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    double expected = n * weights[i] / total;
    chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
  }
  // 4 dof, 99.9% critical ~18.5.
  EXPECT_LT(chi2, 18.5);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0, 3.0});
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    std::size_t s = table.Sample(&rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, SingleEntry) {
  AliasTable table({42.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(&rng), 0u);
}

TEST(AliasTableDeathTest, RejectsInvalidWeights) {
  EXPECT_DEATH(AliasTable({-1.0, 2.0}), "negative weight");
  EXPECT_DEATH(AliasTable({0.0, 0.0}), "sum to zero");
}

TEST(MixSeedsTest, SensitiveToBothInputs) {
  std::set<std::uint64_t> values;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      values.insert(MixSeeds(a, b));
    }
  }
  EXPECT_EQ(values.size(), 100u);
}

// --- LaneRng: the batched counter-form generator of the SIMD edge kernel.
// The determinism contract (docs/PERFORMANCE.md) is that every draw is a
// pure function of (seed, counter): the scalar reference, the unrolled
// portable fill, and the AVX2 fill must agree bit for bit.

TEST(LaneRngTest, MatchesSplitMix64Reference) {
  // Counter form == the sequential SplitMix64 stream, value for value.
  SplitMix64 reference(987654321);
  LaneRng lane(987654321);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(lane.Next(), reference.Next());
}

TEST(LaneRngTest, FillRawMatchesScalarNextAtAnyLength) {
  for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000}) {
    LaneRng scalar(42), batched(42);
    std::vector<std::uint64_t> expected(n), got(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = scalar.Next();
    batched.FillRaw(got.data(), n);
    EXPECT_EQ(got, expected) << "n=" << n;
    // Both generators must land on the same state afterwards.
    EXPECT_EQ(batched.Next(), scalar.Next()) << "n=" << n;
  }
}

TEST(LaneRngTest, FillUnitMatchesScalarConversionBitExactly) {
  LaneRng scalar(7), batched(7);
  std::vector<double> expected(257), got(257);
  for (double& x : expected) x = scalar.NextUnit();
  batched.FillUnit(got.data(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise comparison, not EXPECT_DOUBLE_EQ: the contract is identity.
    EXPECT_EQ(got[i], expected[i]) << i;
    EXPECT_GE(got[i], 0.0);
    EXPECT_LT(got[i], 1.0);
  }
}

TEST(LaneRngTest, PortableAndActiveFillsAreBitIdentical) {
  // On an AVX2 CPU the active fill is the vector one, so this pins
  // SIMD == portable rather than comparing portable with portable.
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    ASSERT_TRUE(LaneRng::SimdActive());
  }
#endif
  LaneRng a(123), b(123);
  std::vector<std::uint64_t> simd(301), portable(301);
  a.FillRaw(simd.data(), simd.size());
  b.FillRawPortable(portable.data(), portable.size());
  EXPECT_EQ(simd, portable);

  LaneRng c(321), d(321);
  std::vector<double> simd_unit(301), portable_unit(301);
  c.FillUnit(simd_unit.data(), simd_unit.size());
  d.FillUnitPortable(portable_unit.data(), portable_unit.size());
  for (std::size_t i = 0; i < simd_unit.size(); ++i) {
    EXPECT_EQ(simd_unit[i], portable_unit[i]) << i;
  }
}

TEST(LaneRngTest, ForcePortableSwitchKeepsStream) {
  std::vector<std::uint64_t> on(128), off(128);
  {
    LaneRng lane(55);
    lane.FillRaw(on.data(), on.size());
  }
  SetLaneForcePortable(true);
  {
    LaneRng lane(55);
    lane.FillRaw(off.data(), off.size());
  }
  SetLaneForcePortable(false);
  EXPECT_EQ(on, off);
}

TEST(LaneRngTest, InterleavedScalarAndBatchDrawsShareOneCounter) {
  // Mixing Next()/NextGaussian() header draws with Fill* blocks must
  // consume the same single stream as all-scalar draws — this is what lets
  // the scope-size draw precede the batched deviate blocks.
  LaneRng reference(99), mixed(99);
  std::vector<std::uint64_t> expected(40), got(40);
  for (auto& x : expected) x = reference.Next();
  got[0] = mixed.Next();
  mixed.FillRaw(got.data() + 1, 17);
  got[18] = mixed.Next();
  mixed.FillRaw(got.data() + 19, 21);
  EXPECT_EQ(got, expected);
}

TEST(LaneRngTest, GaussianMomentsAreSane) {
  LaneRng lane(2024);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = lane.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(PackedAliasTableTest, FrequenciesMatchWeights) {
  const std::vector<double> weights = {1.0, 3.0, 0.0, 4.0};
  PackedAliasTable table(weights);
  LaneRng lane(31337);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table.Sample(lane.Next())];
  EXPECT_EQ(counts[2], 0);  // zero weight is never drawn
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = n * weights[i] / 8.0;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected + 1.0)) << i;
  }
}

TEST(PackedAliasTableTest, SingleOutcome) {
  PackedAliasTable table(std::vector<double>{2.5});
  EXPECT_EQ(table.Sample(0), 0u);
  EXPECT_EQ(table.Sample(~std::uint64_t{0}), 0u);
}

TEST(PackedAliasTableDeathTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(PackedAliasTable(std::vector<double>{1.0, 1.0, 1.0}),
               "power of two");
}

}  // namespace
}  // namespace tg::rng
