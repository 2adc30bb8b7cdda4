#include "core/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "core/partitioner.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "prof/profiler.h"
#include "util/stopwatch.h"

namespace tg::core {

double CpuImbalance(const std::vector<double>& worker_cpu_seconds) {
  if (worker_cpu_seconds.empty()) return 1.0;
  double sum = 0.0;
  double max_cpu = 0.0;
  for (double c : worker_cpu_seconds) {
    sum += c;
    max_cpu = std::max(max_cpu, c);
  }
  const double mean = sum / static_cast<double>(worker_cpu_seconds.size());
  return mean > 0.0 ? max_cpu / mean : 1.0;
}

namespace {

/// Longest LEB128 encoding of a 64-bit value. The writer opens a new block
/// when fewer bytes than this are left, so no varint straddles two blocks.
constexpr std::ptrdiff_t kMaxVarintBytes = 10;

inline std::uint8_t* PutVarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Reads one LEB128 value at `*p` and advances past it.
inline std::uint64_t GetVarint(const std::uint8_t** p) {
  const std::uint8_t* q = *p;
  std::uint64_t v = 0;
  int shift = 0;
  while (*q & 0x80) {
    v |= static_cast<std::uint64_t>(*q++ & 0x7f) << shift;
    shift += 7;
  }
  v |= static_cast<std::uint64_t>(*q++) << shift;
  *p = q;
  return v;
}

}  // namespace

ChunkBuffer::ChunkBuffer(MemoryBudget* budget)
    : budget_(budget),
      tag_(budget != nullptr ? budget->Tag(kParkedTag) : nullptr) {}

ChunkBuffer::ChunkBuffer(ChunkBuffer&& other) noexcept
    : budget_(other.budget_),
      tag_(other.tag_),
      blocks_(std::move(other.blocks_)),
      pos_(std::exchange(other.pos_, nullptr)),
      end_(std::exchange(other.end_, nullptr)),
      prev_u_(std::exchange(other.prev_u_, 0)),
      target_(std::exchange(other.target_, nullptr)) {}

void ChunkBuffer::NewBlock() {
  if (!blocks_.empty()) blocks_.back()->size = pos_ - blocks_.back()->bytes;
  blocks_.push_back(std::make_unique<Block>(budget_, tag_));
  pos_ = blocks_.back()->bytes;
  end_ = pos_ + sizeof(Block::bytes);
}

void ChunkBuffer::Pack(VertexId u, const VertexId* adj, std::size_t n) {
  // The cursor lives in locals: the byte stores could alias the members.
  std::uint8_t* pos = pos_;
  std::uint8_t* end = end_;
  auto put = [&](std::uint64_t v) {
    if (end - pos < kMaxVarintBytes) {
      pos_ = pos;
      NewBlock();
      pos = pos_;
      end = end_;
    }
    pos = PutVarint(pos, v);
  };
  put(u - prev_u_);
  put(n);
  for (std::size_t i = 0; i < n; ++i) put(adj[i]);
  pos_ = pos;
  prev_u_ = u;
}

void ChunkBuffer::Clear() {
  blocks_.clear();
  pos_ = end_ = nullptr;
  prev_u_ = 0;
  target_ = nullptr;
}

void ChunkBuffer::FlushTo(ScopeSink* sink) {
  if (blocks_.empty()) return;
  blocks_.back()->size = pos_ - blocks_.back()->bytes;
  std::size_t next = 0;  // the block to open when the current one runs out
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  auto open_next = [&] {
    if (next > 0) blocks_[next - 1].reset();
    p = blocks_[next]->bytes;
    end = p + blocks_[next]->size;
    ++next;
  };
  auto get = [&] {
    if (p == end) open_next();
    return GetVarint(&p);
  };
  VertexId u = 0;
  while (p != end || next < blocks_.size()) {
    u += get();
    const std::size_t n = get();
    if (adj_.size() < n) adj_.resize(n);
    VertexId* adj = adj_.data();
    // Varints never straddle blocks, so the ids decode block by block.
    for (std::size_t i = 0; i < n;) {
      if (p == end) open_next();
      while (i < n && p != end) adj[i++] = GetVarint(&p);
    }
    sink->ConsumeScope(u, adj, n);
  }
  Clear();
}

std::vector<int> StealDomains(const std::vector<MemoryBudget*>& budgets) {
  std::vector<MemoryBudget*> seen;
  std::vector<int> domains;
  domains.reserve(budgets.size());
  for (MemoryBudget* budget : budgets) {
    const auto it = std::find(seen.begin(), seen.end(), budget);
    domains.push_back(static_cast<int>(it - seen.begin()));
    if (it == seen.end()) seen.push_back(budget);
  }
  return domains;
}

std::vector<std::vector<Chunk>> BuildChunkQueues(
    const model::NoiseVector& noise, const std::vector<VertexId>& boundaries,
    int chunks_per_worker) {
  TG_CHECK(chunks_per_worker >= 1);
  TG_CHECK(boundaries.size() >= 2);
  const int num_ranges = static_cast<int>(boundaries.size()) - 1;
  std::vector<std::vector<Chunk>> queues(num_ranges);
  for (int r = 0; r < num_ranges; ++r) {
    const std::vector<VertexId> sub = PartitionRangeByCdf(
        noise, boundaries[r], boundaries[r + 1], chunks_per_worker);
    queues[r].reserve(chunks_per_worker);
    for (int i = 0; i < chunks_per_worker; ++i) {
      queues[r].push_back(Chunk{r, static_cast<std::uint32_t>(i), sub[i],
                                sub[i + 1]});
    }
  }
  return queues;
}

namespace {

/// One worker's deque of runnable chunks. The owner pops from the front
/// (vertex order, so its own sink commits mostly in order); thieves take
/// from the back — the work the owner would reach last. Chunks are coarse
/// (milliseconds), so a plain mutex per deque costs nothing measurable and
/// keeps the engine trivially ThreadSanitizer-clean.
struct WorkerDeque {
  std::mutex mu;
  std::deque<Chunk> q;
};

/// A chunk that completed out of order, waiting for its predecessors. The
/// Chunk rides along so the commit hook fires with full chunk identity when
/// the parked buffer is finally drained; the buffer's blocks stay charged to
/// the thief's budget until then.
struct ParkedChunk {
  Chunk chunk;
  ChunkBuffer buffer;
};

/// Per-range commit state: the reorder buffer that turns
/// completed-in-any-order chunks back into in-vertex-order sink delivery.
struct RangeCommit {
  std::mutex mu;
  /// Next chunk seq the sink may receive. Also the sink's claim: the worker
  /// that starts chunk next_seq writes it in place, and no other chunk of
  /// the range touches the sink until that one commits.
  std::uint32_t next_seq = 0;
  std::uint32_t total = 0;     ///< chunks this range was split into
  std::map<std::uint32_t, ParkedChunk> parked;  ///< done but out of order
  ScopeSink* sink = nullptr;
  Status finish_status;  ///< what sink->Finish() returned
};

}  // namespace

SchedulerStats RunWorkStealing(const std::vector<std::vector<Chunk>>& queues,
                               const std::vector<ScopeSink*>& sinks,
                               const WorkerFactory& make_worker,
                               const SchedulerOptions& options) {
  const int num_workers = static_cast<int>(queues.size());
  const int num_ranges = static_cast<int>(sinks.size());
  TG_CHECK(num_workers >= 1);
  TG_CHECK(options.budgets.empty() ||
           static_cast<int>(options.budgets.size()) == num_workers);
  TG_CHECK(options.machine_tags.empty() ||
           static_cast<int>(options.machine_tags.size()) == num_workers);

  TG_CHECK(options.resume_next_seq.empty() ||
           static_cast<int>(options.resume_next_seq.size()) == num_ranges);
  fault::FaultInjector* injector = options.fault_injector;
  const bool faulty = injector != nullptr && injector->armed();

  std::vector<WorkerDeque> deques(num_workers);
  std::vector<RangeCommit> ranges(num_ranges);
  std::uint64_t enqueued = 0;
  for (int w = 0; w < num_workers; ++w) {
    for (const Chunk& c : queues[w]) {
      TG_CHECK(c.range >= 0 && c.range < num_ranges);
      ++ranges[c.range].total;
      // Chunks a previous process already committed (per the journal) are
      // skipped entirely: their scopes exist durably in the output.
      if (!options.resume_next_seq.empty() &&
          c.seq < options.resume_next_seq[c.range]) {
        continue;
      }
      deques[w].q.push_back(c);
      ++enqueued;
    }
  }
  for (int r = 0; r < num_ranges; ++r) {
    TG_CHECK(sinks[r] != nullptr);
    ranges[r].sink = sinks[r];
    if (!options.resume_next_seq.empty()) {
      TG_CHECK(options.resume_next_seq[r] <= ranges[r].total);
      ranges[r].next_seq = options.resume_next_seq[r];
    }
    // A range with nothing left to commit (no chunks, or fully committed by
    // the interrupted process) will never commit; honor the Finish contract.
    if (ranges[r].next_seq == ranges[r].total) {
      ranges[r].finish_status = sinks[r]->Finish();
    }
  }

  std::atomic<bool> abort{false};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> recovered_chunks{0};
  // Chunks enqueued but not yet committed. Only consulted on the fault path,
  // where "my deque and my domain are empty" no longer implies "done" — a
  // machine death can put orphaned chunks on the recovery queue at any time.
  std::atomic<std::uint64_t> outstanding{enqueued};
  // Orphaned chunks of dead machines, pulled by any surviving worker once
  // its own steal domain runs dry. Cross-domain on purpose: recovery is the
  // one case where work legitimately crosses a simulated machine boundary.
  std::mutex recovery_mu;
  std::deque<Chunk> recovery_q;
  std::vector<double> cpu(num_workers, 0.0);
  // Wall time at which each worker ran out of work, for the profiler's
  // off-CPU idle-tail attribution (workers that finish early sit joined
  // while the slowest one runs; that gap is `[stall:idle]` time).
  Stopwatch run_timer;
  std::vector<double> exit_wall(num_workers, 0.0);

  const std::vector<int> domains = StealDomains(options.budgets);
  auto domain_of = [&](int w) { return domains.empty() ? 0 : domains[w]; };

  auto try_pop_own = [&](int w, Chunk* out) {
    WorkerDeque& wd = deques[w];
    std::lock_guard<std::mutex> lock(wd.mu);
    if (wd.q.empty()) return false;
    *out = wd.q.front();
    wd.q.pop_front();
    return true;
  };

  auto try_steal = [&](int w, Chunk* out) {
    const int domain = domain_of(w);
    while (true) {
      // Pick the busiest victim in our steal domain, then take from its
      // tail. One lock at a time, so no lock-order concerns.
      int victim = -1;
      std::size_t victim_size = 0;
      for (int v = 0; v < num_workers; ++v) {
        if (v == w || domain_of(v) != domain) continue;
        std::lock_guard<std::mutex> lock(deques[v].mu);
        if (deques[v].q.size() > victim_size) {
          victim = v;
          victim_size = deques[v].q.size();
        }
      }
      if (victim < 0) return false;  // domain fully drained
      std::lock_guard<std::mutex> lock(deques[victim].mu);
      if (deques[victim].q.empty()) continue;  // lost the race; rescan
      *out = deques[victim].q.back();
      deques[victim].q.pop_back();
      return true;
    }
  };

  // Points `buf` straight at the range's sink when `c` is the range's next
  // chunk, else leaves it buffering.
  auto start = [&](const Chunk& c, ChunkBuffer* buf) {
    RangeCommit& rc = ranges[c.range];
    std::lock_guard<std::mutex> lock(rc.mu);
    if (c.seq == rc.next_seq) {
      buf->PassThroughTo(rc.sink);
    } else {
      buf->Clear();
    }
  };

  // Flushes `buf` to its range's sink if it is the next chunk in vertex
  // order (a no-op when it was written in place), else parks it; then
  // drains any parked successors. The range mutex serializes the (not
  // thread-safe) sink between the in-place writer and later commits.
  auto commit = [&](const Chunk& c, ChunkBuffer* buf) {
    RangeCommit& rc = ranges[c.range];
    std::lock_guard<std::mutex> lock(rc.mu);
    if (c.seq != rc.next_seq) {
      rc.parked.emplace(c.seq, ParkedChunk{c, std::move(*buf)});
      return;
    }
    buf->FlushTo(rc.sink);
    if (options.on_chunk_commit) options.on_chunk_commit(c, rc.sink);
    ++rc.next_seq;
    while (!rc.parked.empty() && rc.parked.begin()->first == rc.next_seq) {
      ParkedChunk& parked = rc.parked.begin()->second;
      parked.buffer.FlushTo(rc.sink);
      if (options.on_chunk_commit) options.on_chunk_commit(parked.chunk, rc.sink);
      rc.parked.erase(rc.parked.begin());
      ++rc.next_seq;
    }
    if (rc.next_seq == rc.total) rc.finish_status = rc.sink->Finish();
  };

  // Moves every chunk still queued on worker `w` (whose machine just died)
  // onto the recovery queue. The chunk the worker is mid-way through is not
  // here — crashes take effect at chunk boundaries, so in-flight work
  // completes and commits first (docs/FAULT_TOLERANCE.md, "crash model").
  auto orphan_own_deque = [&](int w) {
    WorkerDeque& wd = deques[w];
    std::lock_guard<std::mutex> lock(wd.mu);
    if (wd.q.empty()) return;
    std::lock_guard<std::mutex> rlock(recovery_mu);
    while (!wd.q.empty()) {
      recovery_q.push_back(wd.q.front());
      wd.q.pop_front();
    }
  };

  auto try_pop_recovery = [&](Chunk* out) {
    std::lock_guard<std::mutex> lock(recovery_mu);
    if (recovery_q.empty()) return false;
    *out = recovery_q.front();
    recovery_q.pop_front();
    return true;
  };

  auto worker_body = [&](int w) {
    const int machine =
        options.machine_tags.empty() ? w : options.machine_tags[w];
    obs::ScopedMachine machine_tag(machine);
    prof::EnsureThreadRegistered(w);
    TG_SPAN("avs.generate");
    const double cpu_start = ThreadCpuSeconds();
    try {
      ChunkFn fn = make_worker(w);
      ChunkBuffer local(options.budgets.empty() ? nullptr
                                                : options.budgets[w]);
      Chunk c;
      double slow_factor = 1.0;
      int transient_attempts = 0;
      while (!abort.load(std::memory_order_relaxed)) {
        // Cancellation is a chunk-boundary event like an injected crash:
        // the chunk in flight commits, nothing further is taken.
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_acquire)) {
          cancelled.store(true, std::memory_order_relaxed);
          break;
        }
        if (faulty) {
          // Chunk boundary: consult the injector before taking more work.
          // Crashes take effect here, so a chunk in flight always commits.
          if (injector->machine_dead(machine)) {
            orphan_own_deque(w);
            break;
          }
          fault::Decision d = injector->OnChunkBoundary(machine);
          if (d.kind == fault::Decision::Kind::kDie) {
            std::_Exit(fault::kKilledExitCode);
          }
          if (d.kind == fault::Decision::Kind::kCrash) {
            orphan_own_deque(w);
            break;
          }
          if (d.kind == fault::Decision::Kind::kTransient) {
            if (++transient_attempts >= fault::FaultInjector::kMaxRetries) {
              // Retries exhausted: promote the flaky machine to dead. The
              // next loop iteration takes the machine_dead exit above.
              injector->MarkDead(machine);
              obs::GetCounter("fault.machines_lost")->Increment();
              continue;
            }
            injector->BackoffBeforeRetry(transient_attempts);
            continue;
          }
          transient_attempts = 0;
          slow_factor = d.slow_factor;
        }
        bool stolen = false;
        bool recovered = false;
        if (!try_pop_own(w, &c)) {
          if (try_steal(w, &c)) {
            stolen = true;
          } else if (faulty && try_pop_recovery(&c)) {
            recovered = true;
          } else if (!faulty ||
                     outstanding.load(std::memory_order_acquire) == 0) {
            break;
          } else {
            // Another machine may still crash and orphan chunks onto the
            // recovery queue; stay alive until everything has committed.
            prof::RecordStall("steal_wait", 50e-6);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
        }
        double chunk_wall = 0.0;
        {
          TG_SPAN(recovered ? "fault.recover" : "sched.chunk");
          Stopwatch chunk_timer;
          start(c, &local);
          fn(c, &local);
          if (faulty) chunk_wall = chunk_timer.ElapsedSeconds();
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
        if (recovered) {
          recovered_chunks.fetch_add(1, std::memory_order_relaxed);
          obs::GetGauge("fault.recovery_seconds")->Add(chunk_wall);
        }
        if (faulty && slow_factor > 1.0) {
          // A slow machine takes slow_factor× the time per chunk: charge
          // the difference as real sleep so stealing reacts to it.
          const double delay = (slow_factor - 1.0) * chunk_wall;
          obs::GetGauge("fault.delay_seconds")->Add(delay);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        }
        commit(c, &local);
        if (faulty) outstanding.fetch_sub(1, std::memory_order_acq_rel);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
    cpu[w] = ThreadCpuSeconds() - cpu_start;
    exit_wall[w] = run_timer.ElapsedSeconds();
  };

  if (options.worker_runner) {
    // External executor (the serve daemon's shared pool): hand over the
    // bodies and block until the pool has run them all. Safe at any real
    // parallelism — a body that starts late finds its deque already stolen
    // empty and exits.
    std::vector<std::function<void()>> bodies;
    bodies.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      bodies.push_back([&worker_body, w] { worker_body(w); });
    }
    options.worker_runner(bodies);
  } else if (num_workers == 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) threads.emplace_back(worker_body, w);
    for (std::thread& t : threads) t.join();
  }

  // Idle tails: workers that drained their domain early were off-CPU until
  // the slowest worker finished. Recorded per simulated machine so the
  // folded profile shows load imbalance as `[stall:idle]` frames.
  const double last_exit =
      *std::max_element(exit_wall.begin(), exit_wall.end());
  for (int w = 0; w < num_workers; ++w) {
    const double tail = last_exit - exit_wall[w];
    if (tail <= 0.0) continue;
    prof::RecordStall("idle", tail,
                      options.machine_tags.empty() ? w
                                                   : options.machine_tags[w]);
  }

  if (first_error) std::rethrow_exception(first_error);
  if (faulty && !cancelled.load(std::memory_order_relaxed)) {
    const std::uint64_t lost = outstanding.load(std::memory_order_acquire);
    if (lost != 0) {
      // Every worker exited through the crash path: no machine survived to
      // drain the recovery queue. The caller decides whether this run can
      // be resumed from its journal.
      throw fault::FaultError(
          "all simulated machines crashed; " + std::to_string(lost) +
          " chunks uncommitted (plan: " + injector->plan().ToString() + ")");
    }
  }

  SchedulerStats stats;
  stats.cancelled = cancelled.load(std::memory_order_relaxed);
  stats.num_chunks = executed.load(std::memory_order_relaxed);
  stats.num_steals = steals.load(std::memory_order_relaxed);
  stats.num_recovered = recovered_chunks.load(std::memory_order_relaxed);
  stats.worker_cpu_seconds = cpu;
  for (double c : cpu) {
    stats.max_worker_cpu_seconds = std::max(stats.max_worker_cpu_seconds, c);
  }
  stats.imbalance = CpuImbalance(cpu);
  for (const RangeCommit& rc : ranges) {
    if (!rc.finish_status.ok()) {
      stats.sink_status = rc.finish_status;
      break;
    }
  }

  // Phase-boundary recording: a handful of ops per run, always on (like
  // RecordAvsStats). Set (not Max) so one report per bench row reflects the
  // row's own run.
  obs::GetCounter("sched.chunks")->Add(stats.num_chunks);
  obs::GetCounter("sched.steals")->Add(stats.num_steals);
  obs::GetGauge("sched.imbalance")->Set(stats.imbalance);
  if (stats.num_recovered != 0) {
    obs::GetCounter("fault.recovered_chunks")->Add(stats.num_recovered);
  }
  return stats;
}

}  // namespace tg::core
