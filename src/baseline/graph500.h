#ifndef TRILLIONG_BASELINE_GRAPH500_H_
#define TRILLIONG_BASELINE_GRAPH500_H_

#include <functional>
#include <vector>

#include "cluster/sim_cluster.h"
#include "model/seed_matrix.h"
#include "util/common.h"

namespace tg::baseline {

/// Bijective vertex-ID scramble on [0, 2^scale) in the style of the
/// Graph500 reference generator: relabeling via (odd-multiplier, xorshift)
/// rounds destroys the correlation between vertex ID and degree, which is
/// how Graph500 avoids the workload skew problem without range partitioning
/// (Appendix D: "scramble mechanism that relabels vertex IDs via perfect
/// hashing").
VertexId ScrambleVertex(VertexId x, int scale, std::uint64_t key);

/// Graph500-benchmark-style generator (Appendix D): an in-memory, two-phase
/// pipeline. Phase 1 (generation): every worker produces its share of |E|
/// NSKG edges by per-edge recursive quadrant selection and scrambles the
/// endpoints. Phase 2 (construction): edges are shuffled to the machine
/// owning their source block and assembled into an in-memory CSR —
/// shuffling, merging and format conversion all count as construction
/// overhead, which is what Figure 14(b) measures.
struct Graph500Options {
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  int scale = 20;
  std::uint64_t edge_factor = 16;
  double noise = 0.1;  ///< the benchmark generates noisy SKG (Figure 9(c))
  std::uint64_t rng_seed = 42;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const { return edge_factor << scale; }
};

struct Graph500Stats {
  std::uint64_t num_edges = 0;  ///< raw edges (the kernel keeps duplicates)
  double generation_seconds = 0;
  /// Construction = shuffle (simulated wire time) + CSR assembly (wall).
  double construction_seconds = 0;
  double network_seconds = 0;  ///< portion of construction on the wire
  std::uint64_t shuffled_bytes = 0;
  std::uint64_t peak_machine_bytes = 0;
};

/// Optional per-machine CSR consumer: (machine, lo, offsets, neighbors)
/// where offsets has (block size + 1) entries into neighbors.
using CsrConsumer = std::function<void(int machine, VertexId lo,
                                       const std::vector<std::uint64_t>&,
                                       const std::vector<VertexId>&)>;

Graph500Stats RunGraph500(cluster::SimCluster* cluster,
                          const Graph500Options& options,
                          const CsrConsumer& consume = nullptr);

}  // namespace tg::baseline

#endif  // TRILLIONG_BASELINE_GRAPH500_H_
