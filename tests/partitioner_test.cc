#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/partitioner.h"
#include "model/edge_probability.h"
#include "model/noise.h"
#include "model/seed_matrix.h"

namespace tg::core {
namespace {

using model::EdgeProbability;
using model::NoiseVector;
using model::SeedMatrix;

TEST(PartitionerTest, CumulativeMatchesEdgeProbabilityHelper) {
  const int scale = 8;
  SeedMatrix seed = SeedMatrix::Graph500();
  NoiseVector noise(seed, scale);
  EdgeProbability prob(seed, scale);
  for (VertexId u = 0; u <= prob.num_vertices(); u += 13) {
    EXPECT_NEAR(CumulativeRowProbability(noise, u),
                prob.CumulativeRowProbability(u), 1e-12);
  }
}

TEST(PartitionerTest, CumulativeWithNoiseMatchesBruteForce) {
  const int scale = 6;
  SeedMatrix seed = SeedMatrix::Graph500();
  rng::Rng rng(55);
  NoiseVector noise(seed, scale, 0.1, &rng);

  // Brute force: P'_{u->} per Lemma 7 (product of per-level row sums).
  auto row = [&](VertexId u) {
    double p = 1.0;
    for (int bit = 0; bit < scale; ++bit) {
      p *= noise.RowSumAtBit(bit, static_cast<int>((u >> bit) & 1));
    }
    return p;
  };
  double cum = 0;
  for (VertexId u = 0; u <= (VertexId{1} << scale); ++u) {
    EXPECT_NEAR(CumulativeRowProbability(noise, u), cum, 1e-12) << "u=" << u;
    if (u < (VertexId{1} << scale)) cum += row(u);
  }
  EXPECT_NEAR(cum, 1.0, 1e-12);
}

TEST(PartitionerTest, CdfBoundariesCoverRangeAndAreMonotone) {
  const int scale = 16;
  NoiseVector noise(SeedMatrix::Graph500(), scale);
  for (int bins : {1, 2, 7, 16, 60}) {
    std::vector<VertexId> b = PartitionByCdf(noise, bins);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(bins + 1));
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), VertexId{1} << scale);
    for (int i = 1; i <= bins; ++i) EXPECT_GE(b[i], b[i - 1]);
  }
}

TEST(PartitionerTest, CdfBinsBalanceExpectedMass) {
  const int scale = 18;
  SeedMatrix seed = SeedMatrix::Graph500();
  NoiseVector noise(seed, scale);
  EdgeProbability prob(seed, scale);
  const int bins = 10;
  std::vector<VertexId> b = PartitionByCdf(noise, bins);
  for (int i = 0; i < bins; ++i) {
    double mass = prob.CumulativeRowProbability(b[i + 1]) -
                  prob.CumulativeRowProbability(b[i]);
    // Each bin within a few percent of 1/bins (quantization: one vertex can
    // carry nontrivial mass at the head of a skewed distribution).
    EXPECT_NEAR(mass, 1.0 / bins, 0.05 / bins + 2 * prob.MaxRowProbability())
        << "bin " << i;
  }
}

TEST(PartitionerTest, SkewedSeedStillBalances) {
  const int scale = 16;
  SeedMatrix seed(0.7, 0.15, 0.1, 0.05);
  NoiseVector noise(seed, scale);
  EdgeProbability prob(seed, scale);
  const int bins = 8;
  std::vector<VertexId> b = PartitionByCdf(noise, bins);
  // Vertex-count per bin is wildly uneven (that is the point), but mass is
  // even.
  double min_mass = 1.0, max_mass = 0.0;
  for (int i = 0; i < bins; ++i) {
    double mass = prob.CumulativeRowProbability(b[i + 1]) -
                  prob.CumulativeRowProbability(b[i]);
    min_mass = std::min(min_mass, mass);
    max_mass = std::max(max_mass, mass);
  }
  EXPECT_LT(max_mass / min_mass, 1.3);
  // And the first bin (densest rows) must hold far fewer vertices than the
  // last.
  EXPECT_LT(b[1] - b[0], (b[bins] - b[bins - 1]) / 4);
}

TEST(PartitionerTest, CombineProtocolAgreesWithCdfApproximately) {
  const int scale = 12;
  SeedMatrix seed = SeedMatrix::Graph500();
  NoiseVector noise(seed, scale);
  EdgeProbability prob(seed, scale);
  const std::uint64_t num_edges = 16ULL << scale;
  const int bins = 6;
  std::vector<VertexId> by_cdf = PartitionByCdf(noise, bins);
  std::vector<VertexId> by_combine =
      PartitionByCombine(noise, num_edges, /*num_threads=*/4, bins);
  ASSERT_EQ(by_combine.size(), by_cdf.size());
  // The combine path packs greedily so boundaries shift by up to one bin's
  // worth of head vertices; compare realized mass balance instead of exact
  // boundary equality.
  for (int i = 0; i < bins; ++i) {
    double mass = prob.CumulativeRowProbability(by_combine[i + 1]) -
                  prob.CumulativeRowProbability(by_combine[i]);
    EXPECT_NEAR(mass, 1.0 / bins, 0.6 / bins) << "bin " << i;
  }
  EXPECT_EQ(by_combine.front(), 0u);
  EXPECT_EQ(by_combine.back(), VertexId{1} << scale);
}

TEST(PartitionerTest, CombineStepsComposeToPartitionByCombine) {
  // The cluster driver runs the two Figure 6 steps on separate threads;
  // composed by hand they must give PartitionByCombine's boundaries
  // exactly, and each thread's bins must tile its equal-vertex chunk.
  const int scale = 12;
  NoiseVector noise(SeedMatrix(0.7, 0.15, 0.1, 0.05), scale);
  const VertexId num_vertices = VertexId{1} << scale;
  const std::uint64_t num_edges = 16ULL << scale;
  for (int threads : {1, 2, 3, 4, 7}) {
    for (int bins : {1, 2, 4, 6, 16}) {
      std::vector<std::vector<MassBin>> gathered;
      VertexId next = 0;
      for (int t = 0; t < threads; ++t) {
        gathered.push_back(
            CombineThreadBins(noise, num_edges, t, threads, bins));
        for (const MassBin& b : gathered.back()) {
          EXPECT_EQ(b.begin, next);
          EXPECT_GT(b.end, b.begin);
          next = b.end;
        }
      }
      EXPECT_EQ(next, num_vertices);
      EXPECT_EQ(RepartitionBins(gathered, num_vertices, bins),
                PartitionByCombine(noise, num_edges, threads, bins))
          << "threads=" << threads << " bins=" << bins;
    }
  }
}

TEST(PartitionerTest, RangeCdfMatchesWholeRangePartition) {
  // Restricting to [0, |V|) uses the same targets as PartitionByCdf, so the
  // boundaries must agree exactly.
  const int scale = 14;
  NoiseVector noise(SeedMatrix::Graph500(), scale);
  for (int bins : {1, 3, 16}) {
    EXPECT_EQ(PartitionRangeByCdf(noise, 0, VertexId{1} << scale, bins),
              PartitionByCdf(noise, bins));
  }
}

TEST(PartitionerTest, RangeCdfSubdividesEachBinEvenly) {
  // Splitting each top-level bin into sub-bins must stay inside the bin,
  // cover it exactly, and carry ~equal shares of the bin's own mass — the
  // property the work-stealing scheduler's chunks rely on.
  const int scale = 16;
  SeedMatrix seed(0.7, 0.15, 0.1, 0.05);
  NoiseVector noise(seed, scale);
  EdgeProbability prob(seed, scale);
  const int bins = 4;
  const int sub_bins = 8;
  std::vector<VertexId> outer = PartitionByCdf(noise, bins);
  for (int i = 0; i < bins; ++i) {
    std::vector<VertexId> inner =
        PartitionRangeByCdf(noise, outer[i], outer[i + 1], sub_bins);
    ASSERT_EQ(inner.size(), static_cast<std::size_t>(sub_bins + 1));
    EXPECT_EQ(inner.front(), outer[i]);
    EXPECT_EQ(inner.back(), outer[i + 1]);
    const double bin_mass = prob.CumulativeRowProbability(outer[i + 1]) -
                            prob.CumulativeRowProbability(outer[i]);
    for (int j = 0; j < sub_bins; ++j) {
      EXPECT_GE(inner[j + 1], inner[j]);
      double mass = prob.CumulativeRowProbability(inner[j + 1]) -
                    prob.CumulativeRowProbability(inner[j]);
      EXPECT_NEAR(mass, bin_mass / sub_bins,
                  0.05 * bin_mass + 2 * prob.MaxRowProbability())
          << "bin " << i << " sub " << j;
    }
  }
}

TEST(PartitionerTest, RangeCdfEmptyRange) {
  NoiseVector noise(SeedMatrix::Graph500(), 10);
  std::vector<VertexId> b = PartitionRangeByCdf(noise, 100, 100, 4);
  ASSERT_EQ(b.size(), 5u);
  for (VertexId v : b) EXPECT_EQ(v, 100u);
}

TEST(PartitionerTest, SingleBinIsWholeRange) {
  NoiseVector noise(SeedMatrix::Graph500(), 10);
  std::vector<VertexId> b = PartitionByCdf(noise, 1);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 1024u);
}

TEST(PartitionerTest, MoreBinsThanMassCarryingVerticesDegradesGracefully) {
  // Tiny graph, many bins: boundaries must stay monotone and cover the range.
  NoiseVector noise(SeedMatrix::Graph500(), 3);
  std::vector<VertexId> b = PartitionByCdf(noise, 32);
  ASSERT_EQ(b.size(), 33u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 8u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GE(b[i], b[i - 1]);
}

}  // namespace
}  // namespace tg::core
