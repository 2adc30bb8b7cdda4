// core/scheduler.h — the deterministic work-stealing generation engine.
//
// The paper's expected-edge-mass partitioning (Figure 6) balances workers
// only in expectation: realized scope degrees are skewed, so a static
// one-thread-per-range driver is bound by its slowest worker. Because every
// scope's RNG stream is forked from the vertex id alone (rng::Rng::Fork(u)),
// scope generation is embarrassingly parallel at any granularity — WHO
// generates a scope cannot change WHAT is generated. This engine exploits
// that: each CDF-partitioned range is split into `chunks_per_worker` chunks
// of equal expected mass, chunks start on their owner's deque, and idle
// workers steal from the tail of the fullest deque. Chunks commit to the
// owning range's sink strictly in chunk order, so every ScopeSink still
// observes its scopes in increasing vertex order — the output is
// bit-identical for any worker count and any chunking.
//
// Commit protocol. A worker that starts the range's next chunk owns the
// range's sink until that chunk commits and generates straight into it (the
// common case: an owner popping its own deque). Only a chunk that is out of
// order when it starts — in practice a stolen tail — is generated into a
// ChunkBuffer, parked in the range's reorder map, and replayed once its
// predecessors have committed. A worker's working set is therefore the
// O(d_max) scope scratch plus the writer's staging blocks, not a chunk.
#ifndef TRILLIONG_CORE_SCHEDULER_H_
#define TRILLIONG_CORE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/scope_sink.h"
#include "model/noise.h"
#include "util/common.h"

namespace tg::fault {
class FaultInjector;
}  // namespace tg::fault

namespace tg::core {

/// Default chunks per worker: enough slack for stealing to erase realized
/// skew (Figure 12's max-CPU vs wall gap) while keeping per-chunk overhead —
/// one deque pop, one commit under the range lock — far below generation
/// cost.
inline constexpr int kDefaultChunksPerWorker = 16;

/// One unit of schedulable work: chunk `seq` of owner range `range`,
/// covering scopes [lo, hi). Chunks of a range are numbered 0..n-1 in vertex
/// order; the commit protocol releases them to the range's sink in exactly
/// that order.
struct Chunk {
  int range = 0;
  std::uint32_t seq = 0;
  VertexId lo = 0;
  VertexId hi = 0;
};

/// Where a worker generates one chunk. Out of order (its predecessors are
/// still running), it buffers the chunk as scope-packed adjacency that the
/// commit protocol later replays, in order, into the owner range's
/// (single-threaded) sink. In order, the scheduler points it at that sink
/// with PassThroughTo and every scope goes straight through; nothing is
/// buffered. Capacity persists across Clear().
class ChunkBuffer : public ScopeSink {
 public:
  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    if (target_ != nullptr) {
      target_->ConsumeScope(u, adj, n);
      return;
    }
    scopes_.push_back({u, adj_.size(), n});
    adj_.insert(adj_.end(), adj, adj + n);
  }

  /// Empties the buffer; later scopes are buffered.
  void Clear() {
    adj_.clear();
    scopes_.clear();
    target_ = nullptr;
  }

  /// Empties the buffer; later scopes go straight to `sink` until the next
  /// Clear().
  void PassThroughTo(ScopeSink* sink) {
    Clear();
    target_ = sink;
  }

  /// Replays the buffered scopes, in order, into `sink`.
  void FlushTo(ScopeSink* sink) const {
    for (const ScopeRef& s : scopes_) {
      sink->ConsumeScope(s.u, adj_.data() + s.offset, s.n);
    }
  }

 private:
  struct ScopeRef {
    VertexId u;
    std::size_t offset;
    std::size_t n;
  };
  std::vector<VertexId> adj_;
  std::vector<ScopeRef> scopes_;
  ScopeSink* target_ = nullptr;
};

/// Scheduling policy knobs.
struct SchedulerOptions {
  /// Steal domain of each worker; a worker only steals from deques in its
  /// own domain. Empty means one shared domain (the in-process driver). The
  /// cluster driver maps each simulated machine to its own domain — threads
  /// of one machine share memory, machines do not.
  std::vector<int> steal_domain;
  /// Simulated-machine tag installed on each worker thread (obs span and
  /// per-machine stat attribution). Empty means tag worker w as machine w,
  /// matching the in-process driver's convention.
  std::vector<int> machine_tags;

  /// Fault injector consulted at every chunk boundary (see fault/*). When
  /// set and armed, workers whose simulated machine crashes drain their
  /// deques into a shared recovery queue that surviving machines pull from
  /// once their own steal domain runs dry — because chunk generation is
  /// deterministic in the chunk alone, the recovered output is bit-identical
  /// to a fault-free run. Null: the fault-free fast path, unchanged.
  fault::FaultInjector* fault_injector = nullptr;

  /// Resume support: when non-empty (one entry per range), chunks with
  /// seq < resume_next_seq[range] are treated as already committed by a
  /// previous process (per the chunk-commit journal) and are neither
  /// generated nor delivered; the range's sink continues at that seq.
  std::vector<std::uint32_t> resume_next_seq;

  /// Called under the range's commit lock once each chunk's scopes have
  /// all reached the sink (and before Finish on the last chunk).
  /// gen_cli uses this to checkpoint the sink and append to the journal.
  std::function<void(const Chunk& chunk, ScopeSink* sink)> on_chunk_commit;

  /// Cooperative cancellation, observed at chunk boundaries (not owned).
  /// Once it reads true, workers stop taking chunks and the run returns
  /// with SchedulerStats::cancelled set; sinks of unfinished ranges never
  /// see Finish(). Everything committed before the flag flipped is exactly
  /// the prefix an uncancelled run would have committed — the property the
  /// serve daemon's disconnect-cancel and gen_cli's SIGINT drain rely on.
  const std::atomic<bool>* cancel = nullptr;

  /// Runs the per-worker bodies to completion. Null (the default) spawns
  /// one std::thread per body and joins them. The serve daemon injects its
  /// shared persistent pool here so every tenant's chunks execute on one
  /// bounded set of threads. Contract: each body must run exactly once and
  /// the call must not return before all bodies have; order and real
  /// parallelism are free — any single worker drains all remaining chunks
  /// by stealing, so even sequential execution completes the run.
  std::function<void(std::vector<std::function<void()>>& bodies)>
      worker_runner;
};

/// What the engine measured about one run.
struct SchedulerStats {
  std::uint64_t num_chunks = 0;  ///< chunks executed (all workers)
  std::uint64_t num_steals = 0;  ///< chunks executed off their owner's deque
  std::uint64_t num_recovered = 0;  ///< chunks re-run on a surviving machine
                                    ///  after their owner machine crashed
  /// max/mean per-worker CPU seconds — 1.0 is a perfectly balanced run; the
  /// static driver's gap between max worker CPU and mean shows up here.
  double imbalance = 1.0;
  double max_worker_cpu_seconds = 0.0;
  std::vector<double> worker_cpu_seconds;  ///< one entry per worker
  /// True when SchedulerOptions::cancel stopped the run before every chunk
  /// committed. Unfinished ranges' sinks did not receive Finish().
  bool cancelled = false;
  /// The first non-ok status a sink's Finish() returned, by range index
  /// (e.g. a format writer's latched write error); Ok otherwise.
  Status sink_status;
};

/// Computes `imbalance` (max/mean, 1.0 when idle) from per-worker CPU times.
double CpuImbalance(const std::vector<double>& worker_cpu_seconds);

/// The body a worker runs for one chunk: generate scopes [lo, hi) of
/// `chunk` into `buffer` (empty, and passing through to the range's sink
/// when the chunk is in order). Must be deterministic in the chunk alone —
/// it runs on whichever thread got the chunk.
using ChunkFn = std::function<void(const Chunk& chunk, ChunkBuffer* buffer)>;

/// Called once per worker, on that worker's thread, before it starts taking
/// chunks — the place to build per-worker scratch (generator, ScopeScratch,
/// stats slot) captured by the returned ChunkFn.
using WorkerFactory = std::function<ChunkFn(int worker)>;

/// Splits each range [boundaries[r], boundaries[r+1]) into exactly
/// `chunks_per_worker` chunks whose boundaries are found by the same
/// closed-form CDF inversion as the range partition itself (PartitionByCdf
/// restricted to the range), so chunks carry ~equal *expected* edge mass.
/// Queue r holds the chunks of range r, in vertex order.
std::vector<std::vector<Chunk>> BuildChunkQueues(
    const model::NoiseVector& noise, const std::vector<VertexId>& boundaries,
    int chunks_per_worker);

/// Runs every chunk in `queues` on queues.size() worker threads with
/// work stealing. `sinks[r]` receives range r's scopes in vertex order and
/// its Finish() exactly once, after the last chunk of r commits. Rethrows
/// the first worker exception (e.g. OomError) after all workers stop; a
/// chunk that threw while writing in place leaves its scopes so far in the
/// sink, past the last committed chunk, and the range never sees Finish().
/// Records `sched.chunks` / `sched.steals` counters and the
/// `sched.imbalance` gauge in the global obs registry.
SchedulerStats RunWorkStealing(const std::vector<std::vector<Chunk>>& queues,
                               const std::vector<ScopeSink*>& sinks,
                               const WorkerFactory& make_worker,
                               const SchedulerOptions& options = {});

/// The TG_CHUNKS_PER_WORKER environment hook used by the figure benches
/// (mirrors obs::SessionOptions::FromEnv's TG_* hooks): returns the parsed
/// value when the variable is set to a positive integer, else `fallback`.
int ChunksPerWorkerFromEnv(int fallback = kDefaultChunksPerWorker);

}  // namespace tg::core

#endif  // TRILLIONG_CORE_SCHEDULER_H_
