#include "core/trilliong.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/avs_generator.h"
#include "core/partitioner.h"
#include "core/scheduler.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::core {

/// Builds the per-level seed matrices for the run. AVS-I generates with the
/// transposed seed (the noisy transpose equals the transpose of the noisy
/// matrix because Definition 3 perturbs b and c symmetrically).
model::NoiseVector MakeRunNoise(const TrillionGConfig& config) {
  return model::MakeNskgNoise(config.direction == Direction::kOut
                                  ? config.seed
                                  : config.seed.Transposed(),
                              config.scale, config.noise, config.rng_seed);
}

namespace {

template <typename Real>
GenerateStats RunTyped(const TrillionGConfig& config,
                       const SinkFactory& sink_factory,
                       const WorkerTopology& topology) {
  GenerateStats stats;
  Stopwatch watch;

  const model::NoiseVector noise = MakeRunNoise(config);
  obs::SetCurrentPhase("partition");
  const std::vector<VertexId> boundaries = [&]() -> std::vector<VertexId> {
    if (!config.precomputed_boundaries.empty()) {
      TG_CHECK_MSG(static_cast<int>(config.precomputed_boundaries.size()) ==
                       config.num_workers + 1,
                   "precomputed_boundaries must hold num_workers + 1 entries");
      return config.precomputed_boundaries;
    }
    TG_SPAN("partition");
    return PartitionByCdf(noise, config.num_workers);
  }();
  stats.partition_seconds = watch.ElapsedSeconds();

  watch.Restart();
  obs::SetCurrentPhase("generate");
  TG_SPAN("generate");
  const rng::Rng root(config.rng_seed, /*stream=*/1);

  // Workers that share a budget share memory: one generator per budget (one
  // prefix-table set, charged once to it) and one steal domain, so chunks
  // never migrate between machines.
  SchedulerOptions sched_options;
  sched_options.machine_tags = topology.machine;
  std::vector<MemoryBudget*> domain_budgets;
  std::vector<std::unique_ptr<AvsRangeGenerator<Real>>> generators;
  for (MemoryBudget* budget : topology.budget) {
    const auto it =
        std::find(domain_budgets.begin(), domain_budgets.end(), budget);
    sched_options.steal_domain.push_back(
        static_cast<int>(it - domain_budgets.begin()));
    if (it != domain_budgets.end()) continue;
    domain_budgets.push_back(budget);
    Stopwatch build_watch;
    generators.push_back(std::make_unique<AvsRangeGenerator<Real>>(
        &noise, config.NumEdges(), config.determiner, budget,
        config.exclude_self_loops, config.shared_prefix_tables));
    if (generators.back()->uses_table_kernel() &&
        config.shared_prefix_tables == nullptr) {
      stats.max_table_build_seconds = std::max(stats.max_table_build_seconds,
                                               build_watch.ElapsedSeconds());
    }
  }

  std::vector<AvsWorkerStats> worker_stats(config.num_workers);

  // Split each worker's range into chunks of equal expected mass; per-scope
  // RNG forking makes the output bit-identical to the static schedule no
  // matter which thread runs which chunk. One worker takes the same path:
  // every chunk is then in order and written straight to its sink.
  const int chunks_per_worker = std::max(config.chunks_per_worker, 1);
  const std::vector<std::vector<Chunk>> queues =
      BuildChunkQueues(noise, boundaries, chunks_per_worker);

  std::vector<std::unique_ptr<ScopeSink>> sinks;
  std::vector<ScopeSink*> sink_ptrs;
  sinks.reserve(config.num_workers);
  sink_ptrs.reserve(config.num_workers);
  for (int w = 0; w < config.num_workers; ++w) {
    // The shard's files belong to the worker's machine, so an injected disk
    // fault hits this shard whichever thread writes it.
    obs::ScopedMachine owner(topology.machine[w]);
    sinks.push_back(sink_factory(w, boundaries[w], boundaries[w + 1]));
    TG_CHECK(sinks.back() != nullptr);
    sink_ptrs.push_back(sinks.back().get());
  }

  auto make_worker = [&](int w) -> ChunkFn {
    // shared_ptr because ChunkFn (std::function) must be copyable; the
    // scratch itself is only ever touched by worker w's thread.
    auto scratch = std::make_shared<ScopeScratch<Real>>();
    AvsWorkerStats* stats_slot = &worker_stats[w];
    const AvsRangeGenerator<Real>* generator =
        generators[sched_options.steal_domain[w]].get();
    return [generator, &root, scratch, stats_slot](const Chunk& c,
                                                   ChunkBuffer* buffer) {
      generator->GenerateRange(c.lo, c.hi, root, scratch.get(), stats_slot,
                               buffer);
    };
  };

  sched_options.fault_injector = config.fault_injector;
  sched_options.resume_next_seq = config.resume_next_seq;
  sched_options.on_chunk_commit = config.chunk_commit_hook;
  sched_options.cancel = config.cancel_flag;
  sched_options.worker_runner = config.worker_runner;
  const SchedulerStats sched =
      RunWorkStealing(queues, sink_ptrs, make_worker, sched_options);
  stats.max_worker_cpu_seconds = sched.max_worker_cpu_seconds;
  stats.sched_chunks = sched.num_chunks;
  stats.sched_steals = sched.num_steals;
  stats.sched_recovered = sched.num_recovered;
  stats.sched_imbalance = sched.imbalance;
  stats.cancelled = sched.cancelled;
  stats.sink_status = sched.sink_status;

  AvsWorkerStats merged;
  for (const AvsWorkerStats& s : worker_stats) merged.MergeFrom(s);
  stats.num_edges = merged.num_edges;
  stats.num_scopes = merged.num_scopes;
  stats.max_degree = merged.max_degree;
  stats.peak_scope_bytes = merged.peak_scope_bytes;
  stats.rec_vec_builds = merged.rec_vec_builds;
  stats.cdf_evaluations = merged.cdf_evaluations;
  stats.table_scopes = merged.table_scopes;
  stats.table_edges = merged.table_edges;
  stats.generate_seconds = watch.ElapsedSeconds();
  RecordAvsStats(merged);
  obs::GetGauge("avs.recvec_levels")
      ->Set(static_cast<double>(noise.levels()));
  obs::Registry& reg = obs::Registry::Global();
  for (int w = 0; w < config.num_workers; ++w) {
    reg.MaxMachineStat(topology.machine[w], "peak_scope_bytes",
                       static_cast<double>(worker_stats[w].peak_scope_bytes));
    reg.MaxMachineStat(topology.machine[w], "cpu_seconds",
                       sched.worker_cpu_seconds[w]);
  }
  obs::SetCurrentPhase("idle");
  return stats;
}

}  // namespace

GenerateStats Generate(const TrillionGConfig& config,
                       const SinkFactory& sink_factory) {
  WorkerTopology identity;
  for (int w = 0; w < config.num_workers; ++w) {
    identity.machine.push_back(w);
    identity.budget.push_back(config.budget);
  }
  return Generate(config, sink_factory, identity);
}

GenerateStats Generate(const TrillionGConfig& config,
                       const SinkFactory& sink_factory,
                       const WorkerTopology& topology) {
  TG_CHECK(config.num_workers >= 1);
  TG_CHECK(static_cast<int>(topology.machine.size()) == config.num_workers &&
           static_cast<int>(topology.budget.size()) == config.num_workers);
  // The TG_FAULT_PLAN chaos hook: a run that did not wire an injector of its
  // own still honors the environment plan, over the topology's machines.
  // Keeps existing tests/benches usable as chaos tests.
  if (config.fault_injector == nullptr) {
    const int num_machines =
        *std::max_element(topology.machine.begin(), topology.machine.end()) +
        1;
    if (std::unique_ptr<fault::FaultInjector> env_injector =
            fault::FaultInjector::FromEnvOrNull(num_machines)) {
      TrillionGConfig armed = config;
      armed.fault_injector = env_injector.get();
      return Generate(armed, sink_factory, topology);
    }
  }
  if (config.precision == Precision::kDoubleDouble) {
    return RunTyped<numeric::DoubleDouble>(config, sink_factory, topology);
  }
  return RunTyped<double>(config, sink_factory, topology);
}

GenerateStats GenerateToSink(const TrillionGConfig& config, ScopeSink* sink) {
  TG_CHECK_MSG(config.num_workers == 1,
               "GenerateToSink requires num_workers == 1");
  return Generate(config, [sink](int, VertexId, VertexId) {
    // Non-owning wrapper around the caller's sink.
    class Forward : public ScopeSink {
     public:
      explicit Forward(ScopeSink* inner) : inner_(inner) {}
      void ConsumeScope(VertexId u, const VertexId* adj,
                        std::size_t n) override {
        inner_->ConsumeScope(u, adj, n);
      }
      // Finish() intentionally not forwarded: the caller owns flushing.

     private:
      ScopeSink* inner_;
    };
    return std::make_unique<Forward>(sink);
  });
}

}  // namespace tg::core
