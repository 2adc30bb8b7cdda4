#ifndef TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_
#define TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_

#include "cluster/sim_cluster.h"
#include "core/trilliong.h"

namespace tg::cluster {

/// The full distributed TrillionG pipeline of Section 5 on the simulated
/// cluster, following Figure 6's four steps explicitly:
///   1. combine  — every worker sizes the scopes of its equal-vertex chunk
///                 and packs them into ~|E|/p bins (parallel, real threads);
///   2. gather   — bin summaries travel to the master (byte-accounted on the
///                 simulated wire; the paper notes this traffic is tiny);
///   3. repartition — the master re-cuts bin boundaries to equal mass;
///   4. scatter  — boundaries travel back and every worker generates its
///                 ranges with the recursive vector model.
/// Steps 1-3 replace the in-process closed-form CDF partitioner. Step 4 is
/// one core::Generate call with those boundaries over the cluster's
/// WorkerTopology: worker w is tagged with its machine and charges that
/// machine's budget, so each machine builds one prefix-table set and steals
/// only among its own threads.
struct ClusterGenerateStats {
  core::GenerateStats generate;      ///< core::Generate's stats (phase 4)
  double combine_seconds = 0;        ///< phase 1 (max per-worker CPU)
  double gather_scatter_seconds = 0; ///< phases 2+4 wire time
  double repartition_seconds = 0;    ///< phase 3 (master CPU)
  std::uint64_t control_bytes = 0;   ///< bin summaries on the wire
  std::uint64_t peak_machine_bytes = 0;

  /// End-to-end simulated elapsed time.
  double TotalSeconds() const {
    return combine_seconds + gather_scatter_seconds + repartition_seconds +
           generate.max_worker_cpu_seconds;
  }
};

/// Runs TrillionG across the cluster. `config.num_workers` is ignored — the
/// cluster's worker count is used; `config.budget` is ignored in favor of
/// the per-machine budgets; steps 1-3 replace
/// `config.precomputed_boundaries`; and a null `config.fault_injector` falls
/// back to the cluster's. Every other field (cancel_flag, worker_runner,
/// resume and commit hooks, precision) means what it means for
/// core::Generate. Output is identical to core::Generate with the same seed
/// (scope RNG streams are partition-independent).
ClusterGenerateStats GenerateOnCluster(SimCluster* cluster,
                                       const core::TrillionGConfig& config,
                                       const core::SinkFactory& sink_factory);

}  // namespace tg::cluster

#endif  // TRILLIONG_CLUSTER_TRILLIONG_CLUSTER_H_
