#ifndef TRILLIONG_CORE_TRILLIONG_H_
#define TRILLIONG_CORE_TRILLIONG_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/edge_determiner.h"
#include "core/scheduler.h"
#include "core/scope_sink.h"
#include "model/seed_matrix.h"
#include "util/memory_budget.h"

namespace tg::core {

class AvsPrefixTables;

/// RecVec arithmetic precision (Section 5: TrillionG uses BigDecimal; our
/// DoubleDouble plays that role — see DESIGN.md).
enum class Precision { kDouble, kDoubleDouble };

/// Scope orientation (Section 3.3): AVS-O scopes are source rows (1 x |V|),
/// AVS-I scopes are destination columns (|V| x 1).
enum class Direction { kOut, kIn };

/// Configuration of a TrillionG generation run — the public entry point of
/// the library.
struct TrillionGConfig {
  /// 2x2 seed probability matrix (Graph500 standard by default).
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  /// log2 |V|.
  int scale = 20;
  /// |E| = edge_factor * |V| unless num_edges overrides it (Graph500 uses 16).
  std::uint64_t edge_factor = 16;
  /// Explicit |E|; 0 means "use edge_factor".
  std::uint64_t num_edges = 0;
  /// NSKG noise parameter N (Appendix C); 0 disables noise.
  double noise = 0.0;
  /// Root RNG seed; the whole run is deterministic given this.
  std::uint64_t rng_seed = 42;
  /// Worker threads ("machines x threads" of the paper's cluster).
  int num_workers = 1;
  /// Work-stealing granularity: each worker's CDF-partitioned range is split
  /// into this many chunks of equal expected edge mass, and idle workers
  /// steal chunks from busy ones (src/core/scheduler.h). 1 restores the
  /// static one-range-per-worker schedule. Output is bit-identical for any
  /// value. With one worker it sets the commit granularity: how many chunks
  /// the journal, cancellation and fault injection see.
  int chunks_per_worker = kDefaultChunksPerWorker;
  Precision precision = Precision::kDouble;
  Direction direction = Direction::kOut;
  /// Ablation toggles for the three key ideas (Figure 13).
  DeterminerOptions determiner;
  /// Reject edges (u, u) during generation (the Graph500 specification
  /// discards self-loops; RMAT-family models allow them by default).
  bool exclude_self_loops = false;
  /// Optional per-machine memory cap; OomError propagates to the caller.
  MemoryBudget* budget = nullptr;

  /// Optional fault injector (not owned) consulted at every chunk boundary;
  /// see src/fault/. When left null, Generate() arms one from TG_FAULT_PLAN
  /// if that variable is set — the hook CI's TSan job arms.
  fault::FaultInjector* fault_injector = nullptr;
  /// Resume support: per worker range, the next chunk seq still to commit
  /// (all earlier chunks were journaled as durable by an interrupted
  /// process). Empty for a fresh run.
  std::vector<std::uint32_t> resume_next_seq;
  /// Called under the range commit lock after each chunk's scopes reach the
  /// sink (SchedulerOptions::on_chunk_commit). gen_cli checkpoints writers
  /// and appends to the chunk-commit journal here.
  std::function<void(const Chunk&, ScopeSink*)> chunk_commit_hook;

  /// Cooperative cancellation flag (not owned), observed at chunk
  /// boundaries: once true, no further chunks are taken and Generate
  /// returns with GenerateStats::cancelled set. The committed prefix is
  /// exactly what an uncancelled run would have committed (bit-identical
  /// resume).
  const std::atomic<bool>* cancel_flag = nullptr;

  /// Precomputed worker-range boundaries (size num_workers + 1). Empty (the
  /// default) computes PartitionByCdf(noise, num_workers);
  /// cluster::GenerateOnCluster injects the boundaries its Figure 6
  /// repartition step computed. Output bytes are identical for any
  /// boundaries (scope RNG streams are partition-independent).
  std::vector<VertexId> precomputed_boundaries;

  /// Prefix tables already built for this config's noise vector (not
  /// owned; must outlive the run). Skips the per-run table build when the
  /// table kernel is eligible; ignored otherwise (DoubleDouble precision,
  /// ablations). The serve daemon's artifact cache shares one instance
  /// across requests with the same model parameters.
  const AvsPrefixTables* shared_prefix_tables = nullptr;

  /// Worker-thread executor override (SchedulerOptions::worker_runner):
  /// null spawns one thread per worker (one worker runs on the calling
  /// thread); the serve daemon injects its shared persistent pool.
  std::function<void(std::vector<std::function<void()>>&)> worker_runner;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const {
    if (num_edges != 0) return num_edges;
    // edge_factor << scale overflows silently for large runs (e.g. factor
    // 2^20 at scale 48); widen to 128 bits and fail loudly instead.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(edge_factor)
        << static_cast<unsigned>(scale);
    TG_CHECK_MSG(product <= ~std::uint64_t{0},
                 "edge_factor << scale overflows uint64");
    return static_cast<std::uint64_t>(product);
  }
};

/// Aggregate statistics of a generation run.
struct GenerateStats {
  std::uint64_t num_edges = 0;
  std::uint64_t num_scopes = 0;
  std::uint64_t max_degree = 0;
  /// Peak per-scope working set over all workers — the O(d_max) bytes.
  std::uint64_t peak_scope_bytes = 0;
  std::uint64_t rec_vec_builds = 0;
  /// CDF inversions attempted, counting rejection-loop retries.
  std::uint64_t cdf_evaluations = 0;
  /// Scopes/edges produced by the table kernel (core/prefix_tables.h);
  /// zero when the descent kernel ran (ablations, DoubleDouble precision,
  /// determiner.use_prefix_tables == false).
  std::uint64_t table_scopes = 0;
  std::uint64_t table_edges = 0;
  double partition_seconds = 0.0;
  /// Wall-clock of the generation phase on this host.
  double generate_seconds = 0.0;
  /// Maximum per-worker CPU time: the simulated parallel wall-clock when
  /// every worker has its own core (used by the cluster-comparison benches
  /// on oversubscribed hosts).
  double max_worker_cpu_seconds = 0.0;
  /// Longest prefix-table build of the run's generators (one per budget,
  /// built on the calling thread before the workers start). Simulated
  /// machines build in parallel, so the cluster driver charges this once.
  /// 0 when shared_prefix_tables was injected or the descent kernel ran.
  double max_table_build_seconds = 0.0;
  /// Work-stealing scheduler observations. Every run goes through the
  /// scheduler, so sched_chunks counts num_workers * chunks_per_worker
  /// (less any resumed or cancelled chunks) even with one worker; steals
  /// are 0 and imbalance 1.0 then.
  std::uint64_t sched_chunks = 0;
  std::uint64_t sched_steals = 0;
  /// Chunks re-executed on surviving machines after an injected crash.
  std::uint64_t sched_recovered = 0;
  /// max/mean per-worker CPU seconds; 1.0 is perfectly balanced.
  double sched_imbalance = 1.0;
  /// True when TrillionGConfig::cancel_flag stopped the run early; the
  /// outputs hold a clean committed prefix, not the whole graph.
  bool cancelled = false;
  /// The first non-ok status a sink's Finish() returned, by worker index:
  /// a latched write error means the outputs are incomplete. Ok otherwise.
  Status sink_status;
};

/// Creates one sink per worker. Called before generation starts, with the
/// worker index and its vertex range [lo, hi).
using SinkFactory = std::function<std::unique_ptr<ScopeSink>(
    int worker, VertexId lo, VertexId hi)>;

/// Runs the full TrillionG pipeline: AVS-level range partitioning (Figure 6)
/// followed by parallel scope generation under the recursive vector model
/// (Algorithm 4). Each worker streams its scopes to its own sink in
/// increasing vertex order. Deterministic given config.rng_seed, regardless
/// of num_workers.
GenerateStats Generate(const TrillionGConfig& config,
                       const SinkFactory& sink_factory);

/// Where the workers of a Generate() run live. Worker w belongs to simulated
/// machine `machine[w]`: its sink is created under that tag, and the
/// scheduler, per-machine stats and fault injector attribute its chunks to
/// it. It charges `budget[w]` (null: unlimited). Workers that share a budget
/// share memory, so they share one generator (one prefix-table set, charged
/// once to that budget) and one steal domain.
struct WorkerTopology {
  std::vector<int> machine;
  std::vector<MemoryBudget*> budget;
};

/// Generate() over an explicit topology (one entry per config.num_workers);
/// config.budget is not read. The two-argument form is the identity
/// topology: worker w is machine w and every worker charges config.budget.
/// cluster::GenerateOnCluster passes one machine per SimCluster machine.
GenerateStats Generate(const TrillionGConfig& config,
                       const SinkFactory& sink_factory,
                       const WorkerTopology& topology);

/// Convenience: generation into a single caller-provided sink; only valid
/// with num_workers == 1.
GenerateStats GenerateToSink(const TrillionGConfig& config, ScopeSink* sink);

/// The per-level noise vector a Generate() run over `config` would build
/// (AVS-I transposes the seed; NSKG perturbs from the run's dedicated RNG
/// stream). Exposed so the serve daemon's artifact cache can precompute
/// prefix tables, and the cluster driver range boundaries, bit-identical to
/// the run's own.
model::NoiseVector MakeRunNoise(const TrillionGConfig& config);

}  // namespace tg::core

#endif  // TRILLIONG_CORE_TRILLIONG_H_
