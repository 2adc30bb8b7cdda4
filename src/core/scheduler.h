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
// predecessors have committed. An owner's working set is therefore the
// O(d_max) scope scratch plus the writer's staging blocks. A thief adds the
// chunks it parks, packed at ceil(scale / 7) bytes per id or less (about 3
// at scale 22) plus a few bytes per scope, in 1 KiB blocks: at most one
// partly filled block per parked chunk. Those blocks are charged to the
// thief's budget as `sched.parked` until the owner flushes them.
#ifndef TRILLIONG_CORE_SCHEDULER_H_
#define TRILLIONG_CORE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/scope_sink.h"
#include "model/noise.h"
#include "util/common.h"
#include "util/memory_budget.h"

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

/// Where a worker generates one chunk. In order, the scheduler points it at
/// the owner range's (single-threaded) sink with PassThroughTo and every
/// scope goes straight through; nothing is buffered. Out of order (its
/// predecessors are still running), it packs the chunk for the commit
/// protocol to replay, in order, into that sink.
///
/// The packed stream fills a chain of fixed kBlockBytes blocks, so packed
/// bytes are never reallocated or copied. Each scope is the LEB128 of
/// `u - previous u` and of `n`, then its `n` ids, each LEB128: about 3 bytes
/// per id at scale 22 instead of 8, and any 64-bit id round-trips. A varint
/// never straddles two blocks; a scope may. Each block is charged whole to
/// the buffer's budget under kParkedTag while the buffer holds it, so the
/// parked chunks of a thief count against its machine's cap like any other
/// working set. Blocks are small so that a small chunk (a few KB at the
/// daemon's scales) is charged little more than its packed size.
class ChunkBuffer : public ScopeSink {
 public:
  /// One block's allocation, header included.
  static constexpr std::size_t kBlockBytes = 1024;
  static constexpr const char* kParkedTag = "sched.parked";

  /// `budget` (may be null: no charge) pays for the buffered blocks.
  explicit ChunkBuffer(MemoryBudget* budget = nullptr);
  /// Takes `other`'s blocks and their charge; `other` is left empty and keeps
  /// its budget and its decode scratch.
  ChunkBuffer(ChunkBuffer&& other) noexcept;

  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    if (target_ != nullptr) {
      target_->ConsumeScope(u, adj, n);
      return;
    }
    Pack(u, adj, n);
  }

  /// Empties the buffer, releasing its blocks; later scopes are buffered.
  void Clear();

  /// Empties the buffer; later scopes go straight to `sink` until the next
  /// Clear().
  void PassThroughTo(ScopeSink* sink) {
    Clear();
    target_ = sink;
  }

  /// Replays the buffered scopes, in order, into `sink`, decoding each
  /// scope into one reused adjacency scratch and releasing each block once
  /// it is decoded. The buffer is empty afterwards. A no-op when passing
  /// through.
  void FlushTo(ScopeSink* sink);

 private:
  struct Block {
    Block(MemoryBudget* budget, MemoryBudget::TagStats* tag)
        : charge(budget, kBlockBytes, tag) {}
    ScopedAllocation charge;
    std::size_t size = 0;  ///< bytes used; the last block's is pos_ - bytes
    std::uint8_t bytes[kBlockBytes - sizeof(ScopedAllocation) -
                       sizeof(std::size_t)];
  };
  static_assert(sizeof(Block) == kBlockBytes);

  void Pack(VertexId u, const VertexId* adj, std::size_t n);
  void NewBlock();

  MemoryBudget* budget_;
  MemoryBudget::TagStats* tag_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::uint8_t* pos_ = nullptr;  ///< next free byte of the last block
  std::uint8_t* end_ = nullptr;  ///< end of the last block
  VertexId prev_u_ = 0;
  ScopeSink* target_ = nullptr;
  std::vector<VertexId> adj_;  ///< FlushTo's decode scratch
};

/// Scheduling policy knobs.
struct SchedulerOptions {
  /// Memory budget of each worker (null entries allowed). Workers that
  /// share a budget form one steal domain (StealDomains), and the chunks a
  /// worker parks are charged to its budget under ChunkBuffer::kParkedTag
  /// until their owner flushes them. Empty means one shared domain and no
  /// charge.
  std::vector<MemoryBudget*> budgets;
  /// Simulated-machine tag installed on each worker thread (obs span and
  /// per-machine stat attribution). Empty means tag worker w as machine w,
  /// the identity WorkerTopology.
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

/// The steal domain of each worker: workers that share a budget share memory
/// (the threads of one machine), so they share a domain; machines do not.
/// Domains are numbered in order of first appearance: worker 0 is in
/// domain 0, and a budget no earlier worker has opens the next domain.
std::vector<int> StealDomains(const std::vector<MemoryBudget*>& budgets);

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

}  // namespace tg::core

#endif  // TRILLIONG_CORE_SCHEDULER_H_
