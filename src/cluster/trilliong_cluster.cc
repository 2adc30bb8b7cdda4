#include "cluster/trilliong_cluster.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/avs_generator.h"
#include "core/scheduler.h"
#include "model/noise.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::cluster {

namespace {

/// One bin of the combining step: contiguous vertex range + expected mass.
struct Bin {
  VertexId begin = 0;
  VertexId end = 0;
  double mass = 0.0;
};

}  // namespace

ClusterGenerateStats GenerateOnCluster(SimCluster* cluster,
                                       const core::TrillionGConfig& config,
                                       const core::SinkFactory& sink_factory) {
  const int workers = cluster->num_workers();
  const VertexId num_vertices = config.NumVertices();
  const std::uint64_t num_edges = config.NumEdges();
  const model::NoiseVector noise = core::MakeRunNoise(config);
  const int scale = config.scale;

  ClusterGenerateStats stats;

  // --- Phase 1: combine. Equal-vertex chunks; each worker cuts its chunk
  // into bins of ~|E|/p expected mass (Figure 6 "combine").
  const VertexId chunk = std::max<VertexId>(num_vertices / workers, 1);
  const double per_bin_target =
      static_cast<double>(num_edges) / static_cast<double>(workers);
  std::vector<std::vector<Bin>> worker_bins(workers);
  obs::SetCurrentPhase("cluster.combine");
  stats.combine_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("cluster.combine");
    VertexId begin =
        std::min<VertexId>(static_cast<VertexId>(w) * chunk, num_vertices);
    VertexId end = (w == workers - 1)
                       ? num_vertices
                       : std::min<VertexId>(begin + chunk, num_vertices);
    std::vector<Bin>& bins = worker_bins[w];
    Bin current{begin, begin, 0.0};
    for (VertexId u = begin; u < end; ++u) {
      double mass = static_cast<double>(num_edges);
      for (int p = 0; p < scale; ++p) {
        mass *= noise.RowSumAtBit(p, static_cast<int>((u >> p) & 1u));
      }
      current.mass += mass;
      current.end = u + 1;
      if (current.mass >= per_bin_target) {
        bins.push_back(current);
        current = Bin{u + 1, u + 1, 0.0};
      }
    }
    if (current.end > current.begin) bins.push_back(current);
  });

  // --- Phase 2: gather. Bin summaries travel to the master (machine 0,
  // worker 0); only cross-machine senders pay wire time.
  std::uint64_t gathered_bytes = 0;
  for (int w = 0; w < workers; ++w) {
    if (cluster->MachineOfWorker(w) != 0) {
      gathered_bytes += worker_bins[w].size() * sizeof(Bin);
    }
  }
  stats.control_bytes = gathered_bytes;
  obs::GetCounter("cluster.control_bytes")->Add(gathered_bytes);
  stats.gather_scatter_seconds =
      cluster->network().ChargeTransfer(gathered_bytes, workers - 1);

  // --- Phase 3: repartition (master). Chunks are in vertex order, so the
  // concatenation is a sorted bin list; cut at cumulative-mass multiples.
  std::vector<VertexId> boundaries;
  {
    Stopwatch master_watch;
    obs::SetCurrentPhase("cluster.repartition");
    TG_SPAN("cluster.repartition");
    double total_mass = 0;
    for (const auto& bins : worker_bins) {
      for (const Bin& b : bins) total_mass += b.mass;
    }
    boundaries.reserve(workers + 1);
    boundaries.push_back(0);
    double cum = 0;
    int next_cut = 1;
    for (const auto& bins : worker_bins) {
      for (const Bin& b : bins) {
        cum += b.mass;
        while (next_cut < workers && cum >= total_mass * next_cut / workers) {
          boundaries.push_back(b.end);
          ++next_cut;
        }
      }
    }
    while (static_cast<int>(boundaries.size()) < workers) {
      boundaries.push_back(num_vertices);
    }
    boundaries.push_back(num_vertices);
    for (std::size_t i = 1; i < boundaries.size(); ++i) {
      boundaries[i] = std::max(boundaries[i], boundaries[i - 1]);
    }
    stats.repartition_seconds = master_watch.ElapsedSeconds();
  }

  // --- Phase 4: scatter (boundaries: workers * 8 bytes, negligible but
  // accounted) + generation under the recursive vector model.
  stats.gather_scatter_seconds += cluster->network().ChargeTransfer(
      static_cast<std::uint64_t>(workers) * sizeof(VertexId), workers - 1);

  // Generation runs on the work-stealing engine, with stealing confined to
  // each simulated machine: the threads of one machine share memory, so a
  // thief can pick up a machine-mate's chunk, but chunks never migrate
  // across the (simulated) wire. Scope RNG streams are forked per vertex,
  // so the stolen schedule produces bit-identical output.
  const rng::Rng root(config.rng_seed, /*stream=*/1);
  std::vector<core::AvsWorkerStats> worker_stats(workers);
  const int chunks_per_worker = std::max(config.chunks_per_worker, 1);
  const std::vector<std::vector<core::Chunk>> queues =
      core::BuildChunkQueues(noise, boundaries, chunks_per_worker);

  std::vector<std::unique_ptr<core::ScopeSink>> sinks;
  std::vector<core::ScopeSink*> sink_ptrs;
  sinks.reserve(workers);
  sink_ptrs.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    // The shard's files belong to the worker's machine (its disk faults).
    obs::ScopedMachine owner(cluster->MachineOfWorker(w));
    sinks.push_back(sink_factory(w, boundaries[w], boundaries[w + 1]));
    TG_CHECK(sinks.back() != nullptr);
    sink_ptrs.push_back(sinks.back().get());
  }

  core::SchedulerOptions sched_options;
  sched_options.steal_domain.resize(workers);
  sched_options.machine_tags.resize(workers);
  for (int w = 0; w < workers; ++w) {
    sched_options.steal_domain[w] = cluster->MachineOfWorker(w);
    sched_options.machine_tags[w] = cluster->MachineOfWorker(w);
  }

  // Fault injection: an explicit injector on the config wins, then one
  // attached to the cluster, then the TG_FAULT_PLAN environment hook. A
  // machine that crashes mid-generation stops taking chunks, its queued
  // chunks migrate to surviving machines through the scheduler's recovery
  // queue, and — scope streams being forked per vertex — the output stays
  // bit-identical to the fault-free run.
  std::unique_ptr<fault::FaultInjector> env_injector;
  fault::FaultInjector* injector = config.fault_injector != nullptr
                                       ? config.fault_injector
                                       : cluster->fault_injector();
  if (injector == nullptr) {
    env_injector =
        fault::FaultInjector::FromEnvOrNull(cluster->num_machines());
    injector = env_injector.get();
  }
  sched_options.fault_injector = injector;
  sched_options.resume_next_seq = config.resume_next_seq;
  sched_options.on_chunk_commit = config.chunk_commit_hook;

  obs::SetCurrentPhase("generate");
  auto run_generation = [&]<typename Real>() {
    auto make_worker = [&](int w) -> core::ChunkFn {
      auto generator = std::make_shared<core::AvsRangeGenerator<Real>>(
          &noise, num_edges, config.determiner, cluster->worker_budget(w),
          config.exclude_self_loops);
      auto scratch = std::make_shared<core::ScopeScratch<Real>>();
      core::AvsWorkerStats* stats_slot = &worker_stats[w];
      return [generator, scratch, stats_slot, &root](
                 const core::Chunk& c, core::ChunkBuffer* buffer) {
        generator->GenerateRange(c.lo, c.hi, root, scratch.get(), stats_slot,
                                 buffer);
      };
    };
    return core::RunWorkStealing(queues, sink_ptrs, make_worker,
                                 sched_options);
  };
  const core::SchedulerStats sched =
      config.precision == core::Precision::kDoubleDouble
          ? run_generation.template operator()<numeric::DoubleDouble>()
          : run_generation.template operator()<double>();
  stats.generate.max_worker_cpu_seconds = sched.max_worker_cpu_seconds;
  stats.generate.sched_chunks = sched.num_chunks;
  stats.generate.sched_steals = sched.num_steals;
  stats.generate.sched_recovered = sched.num_recovered;
  stats.generate.sched_imbalance = sched.imbalance;

  core::AvsWorkerStats merged;
  for (const core::AvsWorkerStats& s : worker_stats) merged.MergeFrom(s);
  stats.generate.num_edges = merged.num_edges;
  stats.generate.num_scopes = merged.num_scopes;
  stats.generate.max_degree = merged.max_degree;
  stats.generate.peak_scope_bytes = merged.peak_scope_bytes;
  stats.generate.rec_vec_builds = merged.rec_vec_builds;
  stats.generate.cdf_evaluations = merged.cdf_evaluations;
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  core::RecordAvsStats(merged);
  obs::GetGauge("avs.recvec_levels")->Set(static_cast<double>(scale));
  cluster->RecordMachineStats();
  obs::SetCurrentPhase("idle");
  return stats;
}

}  // namespace tg::cluster
