#include "cluster/trilliong_cluster.h"

#include <utility>
#include <vector>

#include "core/partitioner.h"
#include "model/noise.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::cluster {

ClusterGenerateStats GenerateOnCluster(SimCluster* cluster,
                                       const core::TrillionGConfig& config,
                                       const core::SinkFactory& sink_factory) {
  const int workers = cluster->num_workers();
  const std::uint64_t num_edges = config.NumEdges();
  const model::NoiseVector noise = core::MakeRunNoise(config);

  ClusterGenerateStats stats;

  // --- Phase 1: combine. Each worker packs its equal-vertex chunk into
  // bins of ~|E|/p expected mass (Figure 6 "combine").
  std::vector<std::vector<core::MassBin>> worker_bins(workers);
  obs::SetCurrentPhase("cluster.combine");
  stats.combine_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("cluster.combine");
    worker_bins[w] =
        core::CombineThreadBins(noise, num_edges, w, workers, workers);
  });

  // --- Phase 2: gather. Bin summaries travel to the master (machine 0,
  // worker 0); only cross-machine senders pay wire time.
  std::uint64_t gathered_bytes = 0;
  for (int w = 0; w < workers; ++w) {
    if (cluster->MachineOfWorker(w) != 0) {
      gathered_bytes += worker_bins[w].size() * sizeof(core::MassBin);
    }
  }
  stats.control_bytes = gathered_bytes;
  obs::GetCounter("cluster.control_bytes")->Add(gathered_bytes);
  stats.gather_scatter_seconds =
      cluster->network().ChargeTransfer(gathered_bytes, workers - 1);

  // --- Phase 3: repartition (master): cut the gathered bins into p ranges
  // of equal expected mass.
  std::vector<VertexId> boundaries;
  {
    Stopwatch master_watch;
    obs::SetCurrentPhase("cluster.repartition");
    TG_SPAN("cluster.repartition");
    boundaries =
        core::RepartitionBins(worker_bins, config.NumVertices(), workers);
    stats.repartition_seconds = master_watch.ElapsedSeconds();
  }

  // --- Phase 4: scatter (boundaries: workers * 8 bytes, negligible but
  // accounted) + generation under the recursive vector model.
  stats.gather_scatter_seconds += cluster->network().ChargeTransfer(
      static_cast<std::uint64_t>(workers) * sizeof(VertexId), workers - 1);

  // Generation: one core::Generate over the cluster's topology. The threads
  // of one machine share its budget, so they share one table set and one
  // steal domain; chunks never migrate across the simulated wire (except to
  // recover a crashed machine's chunks). Scope RNG streams are forked per
  // vertex, so the output is bit-identical to an in-process run. An explicit
  // injector on the config wins over one attached to the cluster.
  core::TrillionGConfig run = config;
  run.num_workers = workers;
  run.precomputed_boundaries = std::move(boundaries);
  if (run.fault_injector == nullptr) {
    run.fault_injector = cluster->fault_injector();
  }
  core::WorkerTopology topology;
  for (int w = 0; w < workers; ++w) {
    topology.machine.push_back(cluster->MachineOfWorker(w));
    topology.budget.push_back(cluster->worker_budget(w));
  }
  stats.generate = core::Generate(run, sink_factory, topology);
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  cluster->RecordMachineStats();
  return stats;
}

}  // namespace tg::cluster
