#include "baseline/kronecker.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "numeric/bits.h"

namespace tg::baseline {

WesStats FastKronecker(const FastKroneckerOptions& options,
                       const EdgeConsumer& consume) {
  const RmatPrefixTables tables(options.seed,
                                options.seed.LevelsFor(options.num_vertices));
  // Dedup key: u * |V| + v (fits 64 bits whenever |V|^2 does; the paper's
  // WES baselines die of memory long before that).
  TG_CHECK_MSG(options.num_vertices <= (VertexId{1} << 31),
               "FastKronecker dedup key overflows past |V| = 2^31");
  rng::Rng rng(options.rng_seed, /*stream=*/3);
  return SampleUniqueEdges(tables, &rng, options.num_vertices,
                           options.num_edges, options.budget,
                           "baseline.kron.edge_set", consume);
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
