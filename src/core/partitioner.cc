#include "core/partitioner.h"

#include <algorithm>
#include <cmath>

#include "numeric/bits.h"

namespace tg::core {

double CumulativeRowProbability(const model::NoiseVector& noise, VertexId u) {
  int scale = noise.levels();
  TG_CHECK(u <= (VertexId{1} << scale));
  // Noisy row sums still total 1 per level, so the whole-range mass is 1.
  if (u == (VertexId{1} << scale)) return 1.0;
  // Walk bits of u from MSB to LSB keeping the prefix product of row sums.
  // Whenever bit k of u is set, every vertex sharing the higher prefix with
  // a 0 at position k is < u; their mass is prefix * rowsum_k(0) * 1 (the
  // free low bits sum to 1 per level because noisy row sums still total 1).
  double cum = 0.0;
  double prefix = 1.0;
  for (int k = scale - 1; k >= 0; --k) {
    int bit = static_cast<int>((u >> k) & 1u);
    if (bit != 0) {
      cum += prefix * noise.RowSumAtBit(k, 0);
      prefix *= noise.RowSumAtBit(k, 1);
    } else {
      prefix *= noise.RowSumAtBit(k, 0);
    }
  }
  return cum;
}

std::vector<VertexId> PartitionRangeByCdf(const model::NoiseVector& noise,
                                          VertexId lo, VertexId hi,
                                          int num_bins) {
  TG_CHECK(num_bins >= 1);
  TG_CHECK(lo <= hi);
  std::vector<VertexId> boundaries(num_bins + 1);
  boundaries[0] = lo;
  boundaries[num_bins] = hi;
  const double cum_lo = CumulativeRowProbability(noise, lo);
  const double cum_hi = CumulativeRowProbability(noise, hi);
  for (int i = 1; i < num_bins; ++i) {
    double target =
        cum_lo + (cum_hi - cum_lo) * static_cast<double>(i) / num_bins;
    // Smallest u in [lo, hi] with Cum(u) >= target.
    VertexId a = lo;
    VertexId b = hi;
    while (a < b) {
      VertexId mid = a + (b - a) / 2;
      if (CumulativeRowProbability(noise, mid) < target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    boundaries[i] = a;
  }
  // Monotonicity guard: extremely skewed seeds can push several boundaries
  // onto the same vertex; keep them non-decreasing.
  for (int i = 1; i <= num_bins; ++i) {
    boundaries[i] = std::max(boundaries[i], boundaries[i - 1]);
  }
  return boundaries;
}

std::vector<VertexId> PartitionByCdf(const model::NoiseVector& noise,
                                     int num_bins) {
  return PartitionRangeByCdf(noise, 0, VertexId{1} << noise.levels(),
                             num_bins);
}

std::vector<MassBin> CombineThreadBins(const model::NoiseVector& noise,
                                       std::uint64_t num_edges, int thread,
                                       int num_threads, int num_bins) {
  TG_CHECK(num_threads >= 1);
  TG_CHECK(thread >= 0 && thread < num_threads);
  TG_CHECK(num_bins >= 1);
  const int scale = noise.levels();
  const VertexId num_vertices = VertexId{1} << scale;
  const double per_bin_target =
      static_cast<double>(num_edges) / static_cast<double>(num_bins);
  const VertexId chunk = std::max<VertexId>(num_vertices / num_threads, 1);
  const VertexId begin =
      std::min<VertexId>(static_cast<VertexId>(thread) * chunk, num_vertices);
  const VertexId end = (thread == num_threads - 1)
                           ? num_vertices
                           : std::min<VertexId>(begin + chunk, num_vertices);
  std::vector<MassBin> bins;
  MassBin current{begin, begin, 0.0};
  for (VertexId u = begin; u < end; ++u) {
    double mass = static_cast<double>(num_edges);
    for (int p = 0; p < scale; ++p) {
      mass *= noise.RowSumAtBit(p, static_cast<int>((u >> p) & 1u));
    }
    current.mass += mass;
    current.end = u + 1;
    if (current.mass >= per_bin_target) {
      bins.push_back(current);
      current = MassBin{u + 1, u + 1, 0.0};
    }
  }
  if (current.end > current.begin) bins.push_back(current);
  return bins;
}

std::vector<VertexId> RepartitionBins(
    const std::vector<std::vector<MassBin>>& gathered, VertexId num_vertices,
    int num_bins) {
  TG_CHECK(num_bins >= 1);
  double total_mass = 0.0;
  for (const std::vector<MassBin>& bins : gathered) {
    for (const MassBin& b : bins) total_mass += b.mass;
  }
  std::vector<VertexId> boundaries;
  boundaries.reserve(num_bins + 1);
  boundaries.push_back(0);
  double cum = 0.0;
  int next_cut = 1;
  for (const std::vector<MassBin>& bins : gathered) {
    for (const MassBin& b : bins) {
      cum += b.mass;
      while (next_cut < num_bins &&
             cum >= total_mass * next_cut / num_bins) {
        boundaries.push_back(b.end);
        ++next_cut;
      }
    }
  }
  while (static_cast<int>(boundaries.size()) < num_bins) {
    boundaries.push_back(num_vertices);
  }
  boundaries.push_back(num_vertices);
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    boundaries[i] = std::max(boundaries[i], boundaries[i - 1]);
  }
  return boundaries;
}

std::vector<VertexId> PartitionByCombine(const model::NoiseVector& noise,
                                         std::uint64_t num_edges,
                                         int num_threads, int num_bins) {
  TG_CHECK(num_threads >= 1);
  std::vector<std::vector<MassBin>> gathered(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    gathered[t] = CombineThreadBins(noise, num_edges, t, num_threads, num_bins);
  }
  return RepartitionBins(gathered, VertexId{1} << noise.levels(), num_bins);
}

}  // namespace tg::core
