#ifndef TRILLIONG_BASELINE_KRONECKER_H_
#define TRILLIONG_BASELINE_KRONECKER_H_

#include "baseline/rmat.h"
#include "model/seed_matrix_n.h"
#include "util/common.h"
#include "util/memory_budget.h"

namespace tg::baseline {

/// FastKronecker (Section 3.1; SNAP's krongen): recursive region selection
/// with an n x n seed matrix, log_n |V| levels per edge, in-memory duplicate
/// elimination — i.e. the WES approach generalized beyond 2 x 2. With n = 2
/// it generates exactly the RMAT distribution.
struct FastKroneckerOptions {
  model::SeedMatrixN seed = model::SeedMatrixN::FromSeedMatrix(
      model::SeedMatrix::Graph500());
  VertexId num_vertices = VertexId{1} << 20;  ///< must be a power of n
  std::uint64_t num_edges = 16ULL << 20;
  std::uint64_t rng_seed = 42;
  MemoryBudget* budget = nullptr;
};
WesStats FastKronecker(const FastKroneckerOptions& options,
                       const EdgeConsumer& consume);

/// The original Kronecker generator (AES, Section 3): visits every cell of
/// the |V| x |V| probability matrix and performs one Bernoulli trial per
/// cell — O(|V|^2 / P) time, O(1) space. Only feasible at small scales,
/// exactly as the paper observes ("extremely slow").
struct KroneckerAesOptions {
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  int scale = 10;
  std::uint64_t num_edges = 0;  ///< 0 -> 16 * |V|; scales cell probabilities
  std::uint64_t rng_seed = 42;
  int num_threads = 1;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const {
    return num_edges != 0 ? num_edges : std::uint64_t{16} << scale;
  }
};

struct AesStats {
  std::uint64_t num_edges = 0;
  std::uint64_t cells_visited = 0;
};

/// Visits all cells; each cell (u, v) yields an edge with probability
/// |E| * K_{u,v} (clamped at 1). The consumer is invoked from multiple
/// threads when num_threads > 1 and must be thread-safe in that case.
AesStats KroneckerAes(const KroneckerAesOptions& options,
                      const EdgeConsumer& consume);

}  // namespace tg::baseline

#endif  // TRILLIONG_BASELINE_KRONECKER_H_
