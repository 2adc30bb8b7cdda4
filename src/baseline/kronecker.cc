#include "baseline/kronecker.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "numeric/bits.h"
#include "rng/alias_table.h"
#include "util/flat_set64.h"

namespace tg::baseline {

namespace {

/// Prefix tables for the n x n recursive descent: the joint cell choices of
/// up to `m` consecutive levels (n^2m outcomes, zero-padded to a power of
/// two) become one PackedAliasTable draw, decoded into m base-n source and
/// destination digits. The n = 2 case matches RmatPrefixTables; the general
/// case keeps the group outcome count at or below 256.
struct KroneckerPrefixTables {
  struct Group {
    VertexId radix;  ///< n^levels-in-group: the per-group digit multiplier
    rng::PackedAliasTable table;
    std::vector<VertexId> u_val;  ///< outcome -> source digits value
    std::vector<VertexId> v_val;  ///< outcome -> destination digits value
  };
  std::vector<Group> groups;

  KroneckerPrefixTables(const model::SeedMatrixN& seed, int levels) {
    const int n = seed.n();
    const int cells = n * n;
    int per_group = 1;
    while (std::pow(cells, per_group + 1) <= 256.0) ++per_group;
    for (int l0 = 0; l0 < levels; l0 += per_group) {
      const int m = std::min(per_group, levels - l0);
      int outcomes = 1;
      for (int j = 0; j < m; ++j) outcomes *= cells;
      std::size_t padded = 1;
      while (padded < static_cast<std::size_t>(outcomes)) padded *= 2;

      Group group;
      group.radix = 1;
      for (int j = 0; j < m; ++j) group.radix *= n;
      group.u_val.resize(padded, 0);
      group.v_val.resize(padded, 0);
      std::vector<double> weights(padded, 0.0);
      for (int p = 0; p < outcomes; ++p) {
        // Outcome p in base `cells`, first level of the group in the most
        // significant digit (matching the MSB-first descent).
        double w = 1.0;
        VertexId u = 0, v = 0;
        int rest = p;
        int divisor = outcomes / cells;
        for (int j = 0; j < m; ++j) {
          const int cell = rest / divisor;
          rest %= divisor;
          divisor = divisor == 1 ? 1 : divisor / cells;
          const int row = cell / n;
          const int col = cell % n;
          w *= seed.Entry(row, col);
          u = u * n + static_cast<VertexId>(row);
          v = v * n + static_cast<VertexId>(col);
        }
        weights[p] = w;
        group.u_val[p] = u;
        group.v_val[p] = v;
      }
      group.table = rng::PackedAliasTable(weights);
      groups.push_back(std::move(group));
    }
  }

  Edge Sample(rng::Rng* rng) const {
    VertexId u = 0, v = 0;
    for (const Group& group : groups) {
      const std::uint32_t p = group.table.Sample(rng->NextUint64());
      u = u * group.radix + group.u_val[p];
      v = v * group.radix + group.v_val[p];
    }
    return Edge{u, v};
  }
};

}  // namespace

WesStats FastKronecker(const FastKroneckerOptions& options,
                       const EdgeConsumer& consume) {
  const model::SeedMatrixN& seed = options.seed;
  const int levels = seed.LevelsFor(options.num_vertices);
  TG_CHECK_MSG(
      options.num_edges <= options.num_vertices * options.num_vertices / 2,
      "|E| must be well below |V|^2 for rejection to terminate");
  rng::Rng rng(options.rng_seed, /*stream=*/3);

  WesStats stats;
  FlatSet64 dedup(static_cast<std::size_t>(options.num_edges));
  ScopedAllocation dedup_mem(options.budget, dedup.MemoryBytes(),
                             "baseline.kron.edge_set");
  stats.peak_bytes = dedup_mem.bytes();

  // Dedup key: u * |V| + v (fits 64 bits whenever |V|^2 does; the paper's
  // WES baselines die of memory long before that).
  TG_CHECK_MSG(options.num_vertices <= (VertexId{1} << 31),
               "FastKronecker dedup key overflows past |V| = 2^31");

  const KroneckerPrefixTables tables(seed, levels);
  while (dedup.size() < options.num_edges) {
    const Edge e = tables.Sample(&rng);
    ++stats.num_generated;
    if (dedup.Insert(e.src * options.num_vertices + e.dst)) {
      consume(e);
      ++stats.num_edges;
      if (dedup.MemoryBytes() > dedup_mem.bytes()) {
        dedup_mem.ResizeTo(dedup.MemoryBytes());
        stats.peak_bytes = std::max(stats.peak_bytes, dedup_mem.bytes());
      }
    }
  }
  return stats;
}

AesStats KroneckerAes(const KroneckerAesOptions& options,
                      const EdgeConsumer& consume) {
  const int scale = options.scale;
  const VertexId n = options.NumVertices();
  const double edge_scale = static_cast<double>(options.NumEdges());

  // K_{u,v} = a^na * b^nb * c^nc * d^nd where the exponents are popcounts
  // (Proposition 1); precomputing the power tables makes each cell O(1).
  std::vector<double> pow_a(scale + 1), pow_b(scale + 1), pow_c(scale + 1),
      pow_d(scale + 1);
  for (int i = 0; i <= scale; ++i) {
    pow_a[i] = std::pow(options.seed.a(), i);
    pow_b[i] = std::pow(options.seed.b(), i);
    pow_c[i] = std::pow(options.seed.c(), i);
    pow_d[i] = std::pow(options.seed.d(), i);
  }

  const int threads = std::max(options.num_threads, 1);
  std::atomic<std::uint64_t> total_edges{0};
  std::atomic<std::uint64_t> total_cells{0};

  auto run_rows = [&](VertexId row_lo, VertexId row_hi, std::uint64_t stream) {
    rng::Rng rng(options.rng_seed, 100 + stream);
    std::uint64_t edges = 0, cells = 0;
    for (VertexId u = row_lo; u < row_hi; ++u) {
      const int u_ones = numeric::BitsLow(u, scale);
      for (VertexId v = 0; v < n; ++v) {
        const int nd = numeric::Bits(u & v);
        const int nb = numeric::BitsLow(v, scale) - nd;
        const int nc = u_ones - nd;
        const int na = scale - nb - nc - nd;
        const double p =
            edge_scale * pow_a[na] * pow_b[nb] * pow_c[nc] * pow_d[nd];
        ++cells;
        if (rng.NextDouble() < p) {
          consume(Edge{u, v});
          ++edges;
        }
      }
    }
    total_edges.fetch_add(edges);
    total_cells.fetch_add(cells);
  };

  if (threads == 1) {
    run_rows(0, n, 0);
  } else {
    std::vector<std::thread> pool;
    VertexId chunk = (n + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      VertexId lo = std::min<VertexId>(static_cast<VertexId>(t) * chunk, n);
      VertexId hi = std::min<VertexId>(lo + chunk, n);
      pool.emplace_back(run_rows, lo, hi, static_cast<std::uint64_t>(t));
    }
    for (std::thread& t : pool) t.join();
  }

  return AesStats{total_edges.load(), total_cells.load()};
}

}  // namespace tg::baseline
