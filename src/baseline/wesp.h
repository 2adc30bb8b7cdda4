#ifndef TRILLIONG_BASELINE_WESP_H_
#define TRILLIONG_BASELINE_WESP_H_

#include <functional>
#include <string>

#include "baseline/rmat.h"
#include "cluster/sim_cluster.h"
#include "model/seed_matrix.h"

namespace tg::baseline {

/// The merge-based parallel WES approach of Section 3.2 (Algorithm 3),
/// called RMAT/p in the evaluation: every worker generates |E|/P * (1+eps)
/// raw RMAT edges over the whole matrix, edges are shuffled to their owner
/// (block partition by source vertex — which concentrates the power-law head
/// on machine 0, reproducing the workload skew the paper describes), and
/// each worker merges its partition while eliminating duplicates.
struct WespOptions {
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  int scale = 20;
  std::uint64_t num_edges = 0;  ///< 0 -> 16 * |V|
  double noise = 0.0;
  std::uint64_t rng_seed = 42;
  double epsilon = 0.01;  ///< oversampling factor (Section 3.2)
  /// false: WES/p-mem (sort+unique in RAM). true: WES/p-disk (external sort).
  bool disk = false;
  std::string temp_dir = ".";
  std::size_t sort_buffer_items = 1 << 20;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const {
    return num_edges != 0 ? num_edges : std::uint64_t{16} << scale;
  }
};

struct WespStats {
  std::uint64_t num_edges = 0;       ///< unique edges after the merge
  std::uint64_t num_generated = 0;   ///< raw edges before dedup
  std::uint64_t shuffled_bytes = 0;  ///< cross-machine wire traffic
  std::uint64_t spilled_bytes = 0;   ///< disk traffic (disk variant)
  std::uint64_t peak_machine_bytes = 0;
  std::uint64_t max_partition_edges = 0;  ///< skew indicator (largest inbox)
  double generate_seconds = 0;
  double shuffle_seconds = 0;  ///< simulated network time
  double merge_seconds = 0;
};

/// Per-worker edge consumer factory; pass nullptr to discard edges.
using WorkerConsumerFactory = std::function<EdgeConsumer(int worker)>;

WespStats RunWesp(cluster::SimCluster* cluster, const WespOptions& options,
                  const WorkerConsumerFactory& consumer_factory = nullptr);

}  // namespace tg::baseline

#endif  // TRILLIONG_BASELINE_WESP_H_
