#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/partitioner.h"
#include "core/trilliong.h"
#include "fault/fault_injector.h"
#include "model/noise.h"

namespace tg::core {
namespace {

/// Collects scopes in memory, checking in-order delivery.
class VectorSink : public ScopeSink {
 public:
  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    EXPECT_TRUE(last_ == ~VertexId{0} || u > last_)
        << "out-of-order delivery: " << u << " after " << last_;
    last_ = u;
    scopes_[u].assign(adj, adj + n);
  }
  Status Finish() override {
    ++finishes_;
    return Status::Ok();
  }

  const std::map<VertexId, std::vector<VertexId>>& scopes() const {
    return scopes_;
  }
  int finishes() const { return finishes_; }

 private:
  std::map<VertexId, std::vector<VertexId>> scopes_;
  VertexId last_ = ~VertexId{0};
  int finishes_ = 0;
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive hash of the full edge set: equal hashes across schedules
/// certify bit-identical output (same scopes, same adjacency order).
std::uint64_t HashEdges(
    const std::map<VertexId, std::vector<VertexId>>& scopes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [u, dsts] : scopes) {
    h = Mix(h, u);
    h = Mix(h, dsts.size());
    for (VertexId v : dsts) h = Mix(h, v);
  }
  return h;
}

/// Runs Generate with per-worker shard sinks and merges the shards.
struct MergedRun {
  std::map<VertexId, std::vector<VertexId>> scopes;
  GenerateStats stats;
};

MergedRun RunMerged(TrillionGConfig config) {
  std::vector<std::shared_ptr<VectorSink>> shards(config.num_workers);
  MergedRun out;
  out.stats = Generate(config, [&](int w, VertexId, VertexId)
                                   -> std::unique_ptr<ScopeSink> {
    shards[w] = std::make_shared<VectorSink>();
    // Non-owning forwarder so the test keeps the sink after Generate.
    class Forward : public ScopeSink {
     public:
      explicit Forward(ScopeSink* inner) : inner_(inner) {}
      void ConsumeScope(VertexId u, const VertexId* adj,
                        std::size_t n) override {
        inner_->ConsumeScope(u, adj, n);
      }
      Status Finish() override { return inner_->Finish(); }

     private:
      ScopeSink* inner_;
    };
    return std::make_unique<Forward>(shards[w].get());
  });
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->finishes(), 1);
    for (const auto& [u, dsts] : shard->scopes()) {
      EXPECT_EQ(out.scopes.count(u), 0u) << "scope split across workers";
      out.scopes[u] = dsts;
    }
  }
  return out;
}

TEST(SchedulerTest, EdgeHashInvariantUnderWorkersAndChunking) {
  // The acceptance bar of the engine: the edge-set hash is identical for
  // every (num_workers, chunks_per_worker) combination, in both precisions.
  for (Precision precision : {Precision::kDouble, Precision::kDoubleDouble}) {
    TrillionGConfig config;
    config.scale = 11;
    config.edge_factor = 8;
    config.rng_seed = 4242;
    config.precision = precision;

    config.num_workers = 1;
    const std::uint64_t reference = HashEdges(RunMerged(config).scopes);

    for (int workers : {1, 3, 8}) {
      for (int chunks : {1, 16}) {
        config.num_workers = workers;
        config.chunks_per_worker = chunks;
        MergedRun run = RunMerged(config);
        EXPECT_EQ(HashEdges(run.scopes), reference)
            << "workers=" << workers << " chunks=" << chunks
            << " precision=" << static_cast<int>(precision);
      }
    }
  }
}

TEST(SchedulerTest, SkewedSeedStealsAndStaysOrdered) {
  // End-to-end through Generate: drag worker 0 down (its sink burns wall
  // time on every scope) so the other workers drain their own deques and
  // must steal worker 0's remaining chunks. VectorSink asserts per-shard
  // vertex order on every delivery; the merged output must still be
  // bit-identical to the single-worker reference.
  TrillionGConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  config.rng_seed = 7;
  config.seed = model::SeedMatrix(0.7, 0.15, 0.1, 0.05);  // strongly skewed

  config.num_workers = 1;
  const std::uint64_t reference = HashEdges(RunMerged(config).scopes);

  config.num_workers = 4;
  config.chunks_per_worker = 16;
  std::vector<std::shared_ptr<VectorSink>> shards(config.num_workers);
  class SlowSink : public ScopeSink {
   public:
    explicit SlowSink(ScopeSink* inner, bool slow)
        : inner_(inner), slow_(slow) {}
    void ConsumeScope(VertexId u, const VertexId* adj,
                      std::size_t n) override {
      if (slow_) std::this_thread::sleep_for(std::chrono::microseconds(200));
      inner_->ConsumeScope(u, adj, n);
    }
    Status Finish() override { return inner_->Finish(); }

   private:
    ScopeSink* inner_;
    bool slow_;
  };
  GenerateStats stats =
      Generate(config, [&](int w, VertexId, VertexId)
                           -> std::unique_ptr<ScopeSink> {
        shards[w] = std::make_shared<VectorSink>();
        return std::make_unique<SlowSink>(shards[w].get(), w == 0);
      });

  EXPECT_EQ(stats.sched_chunks,
            static_cast<std::uint64_t>(config.num_workers) *
                config.chunks_per_worker);
  EXPECT_GT(stats.sched_steals, 0u);
  EXPECT_GE(stats.sched_imbalance, 1.0);

  std::map<VertexId, std::vector<VertexId>> merged;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->finishes(), 1);
    merged.insert(shard->scopes().begin(), shard->scopes().end());
  }
  EXPECT_EQ(HashEdges(merged), reference);
}

TEST(SchedulerTest, EngineStealsFromBusyWorkerAndCommitsInOrder) {
  // Direct engine test with controlled chunk bodies: worker 0 owns every
  // chunk and each chunk takes ~10ms, so workers 1..3 start empty and must
  // steal. Chunks are committed to the range sink strictly in seq order no
  // matter which thread ran them.
  constexpr int kWorkers = 4;
  constexpr int kChunks = 12;
  std::vector<std::vector<Chunk>> queues(kWorkers);
  for (int i = 0; i < kChunks; ++i) {
    queues[0].push_back(Chunk{/*range=*/0, static_cast<std::uint32_t>(i),
                              static_cast<VertexId>(i),
                              static_cast<VertexId>(i + 1)});
  }
  VectorSink sink;
  std::vector<ScopeSink*> sinks = {&sink};

  auto make_worker = [](int) -> ChunkFn {
    return [](const Chunk& c, ChunkBuffer* buffer) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      VertexId v = c.lo;
      buffer->ConsumeScope(c.lo, &v, 1);
    };
  };
  // The hook runs under the range lock, so a plain vector is safe; a chunk
  // commits only once its scope is in the sink, in place or replayed.
  std::vector<std::uint32_t> committed;
  SchedulerOptions options;
  options.on_chunk_commit = [&](const Chunk& c, ScopeSink*) {
    EXPECT_EQ(sink.scopes().count(c.lo), 1u) << "chunk " << c.seq;
    committed.push_back(c.seq);
  };
  SchedulerStats stats = RunWorkStealing(queues, sinks, make_worker, options);

  EXPECT_EQ(stats.num_chunks, static_cast<std::uint64_t>(kChunks));
  EXPECT_GT(stats.num_steals, 0u);
  EXPECT_EQ(sink.finishes(), 1);
  // VectorSink asserted ascending order on every ConsumeScope; all chunks
  // must have landed, and each committed once, in seq order.
  EXPECT_EQ(sink.scopes().size(), static_cast<std::size_t>(kChunks));
  ASSERT_EQ(committed.size(), static_cast<std::size_t>(kChunks));
  for (int i = 0; i < kChunks; ++i) {
    EXPECT_EQ(committed[i], static_cast<std::uint32_t>(i));
  }
}

TEST(SchedulerTest, InOrderChunksWriteStraightToTheSink) {
  // One worker starts every chunk in order, so it owns the range's sink
  // while generating: each scope is in the sink before the chunk body that
  // emitted it returns, with no copy through a chunk buffer.
  std::vector<std::vector<Chunk>> queues(1);
  for (int i = 0; i < 4; ++i) {
    queues[0].push_back(Chunk{0, static_cast<std::uint32_t>(i),
                              static_cast<VertexId>(i),
                              static_cast<VertexId>(i + 1)});
  }
  VectorSink sink;
  std::vector<ScopeSink*> sinks = {&sink};
  auto make_worker = [&](int) -> ChunkFn {
    return [&](const Chunk& c, ChunkBuffer* buffer) {
      VertexId v = c.lo;
      buffer->ConsumeScope(c.lo, &v, 1);
      EXPECT_EQ(sink.scopes().count(c.lo), 1u)
          << "chunk " << c.seq << " was buffered";
    };
  };
  RunWorkStealing(queues, sinks, make_worker);
  EXPECT_EQ(sink.scopes().size(), 4u);
  EXPECT_EQ(sink.finishes(), 1);
}

TEST(SchedulerTest, StealDomainsConfineThieves) {
  // Two machines (budgets) of two workers each, so two steal domains; all
  // work sits on worker 0's deque.
  // Worker 1 (same domain) may steal it; workers 2 and 3 (other domain)
  // must never see it. Each chunk records which worker executed it.
  constexpr int kChunks = 8;
  std::vector<std::vector<Chunk>> queues(4);
  for (int i = 0; i < kChunks; ++i) {
    queues[0].push_back(Chunk{0, static_cast<std::uint32_t>(i),
                              static_cast<VertexId>(i),
                              static_cast<VertexId>(i + 1)});
  }
  VectorSink sink;
  std::vector<ScopeSink*> sinks = {&sink};

  std::atomic<bool> foreign_execution{false};
  auto make_worker = [&](int w) -> ChunkFn {
    return [&, w](const Chunk& c, ChunkBuffer* buffer) {
      if (w >= 2) foreign_execution = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      VertexId v = c.lo;
      buffer->ConsumeScope(c.lo, &v, 1);
    };
  };
  MemoryBudget machine_a, machine_b;
  SchedulerOptions options;
  options.budgets = {&machine_a, &machine_a, &machine_b, &machine_b};
  SchedulerStats stats = RunWorkStealing(queues, sinks, make_worker, options);

  EXPECT_FALSE(foreign_execution.load());
  EXPECT_EQ(stats.num_chunks, static_cast<std::uint64_t>(kChunks));
  EXPECT_EQ(sink.scopes().size(), static_cast<std::size_t>(kChunks));
}

/// Scopes in delivery order, with no ordering check: a ChunkBuffer replays
/// whatever order it was given.
using ScopeList = std::vector<std::pair<VertexId, std::vector<VertexId>>>;

class RecordingSink : public ScopeSink {
 public:
  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    scopes.emplace_back(u, std::vector<VertexId>(adj, adj + n));
  }
  ScopeList scopes;
};

/// Blocks a budget is charged for under the parked tag.
std::uint64_t ParkedBlocks(MemoryBudget* budget) {
  return budget->Tag(ChunkBuffer::kParkedTag)->used.load() /
         ChunkBuffer::kBlockBytes;
}

/// LEB128 length of `v`.
std::uint64_t VarintBytes(std::uint64_t v) {
  std::uint64_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

TEST(ChunkBufferTest, PackedScopesRoundTripAndChargeTheirBlocks) {
  constexpr VertexId kMax48 = (VertexId{1} << 48) - 1;
  ScopeList scopes = {
      {0, {0, 127, 128, VertexId{1} << 21, kMax48}},  // LEB128 edges
      {7, {}},                                        // n == 0
      {kMax48, {kMax48, 0, 1}},
      {3, {2}},  // u may go down: the delta wraps and unwraps
  };
  // Three scopes of 40000 ids below 2^21 (3 bytes each) and one of 60000
  // ids below 2^14 (2 bytes each): each crosses many block boundaries.
  for (VertexId u = 10; u < 13; ++u) {
    std::vector<VertexId> adj(40000);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      adj[i] = (i * 2654435761u + u) % (VertexId{1} << 21);
    }
    scopes.emplace_back(u, std::move(adj));
  }
  std::vector<VertexId> small(60000);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = (i * 7919) % 16384;
  scopes.emplace_back(13, std::move(small));
  std::uint64_t packed = 0;  // the stream's LEB128 bytes
  VertexId prev_u = 0;
  for (const auto& [u, adj] : scopes) {
    packed += VarintBytes(u - prev_u) + VarintBytes(adj.size());
    for (VertexId v : adj) packed += VarintBytes(v);
    prev_u = u;
  }
  MemoryBudget budget;
  ChunkBuffer buffer(&budget);
  auto fill = [&scopes](ChunkBuffer* b) {
    for (const auto& [u, adj] : scopes) {
      b->ConsumeScope(u, adj.data(), adj.size());
    }
  };

  // The charge is the packed size plus the blocks' headers and the unused
  // tails where a varint did not fit (under 5% at 1 KiB), plus at most one
  // partly filled block; 8-byte ids would be about three times as much.
  fill(&buffer);
  const std::uint64_t blocks = ParkedBlocks(&budget);
  EXPECT_GE(blocks * ChunkBuffer::kBlockBytes, packed);
  EXPECT_LE(blocks * ChunkBuffer::kBlockBytes,
            packed + packed / 20 + ChunkBuffer::kBlockBytes);
  RecordingSink out;
  buffer.FlushTo(&out);
  EXPECT_EQ(out.scopes, scopes);
  EXPECT_EQ(ParkedBlocks(&budget), 0u);

  // Refilled after a flush, then parked: the move takes blocks and charge.
  fill(&buffer);
  ChunkBuffer parked(std::move(buffer));
  EXPECT_EQ(ParkedBlocks(&budget), blocks);
  RecordingSink from_parked;
  parked.FlushTo(&from_parked);
  EXPECT_EQ(from_parked.scopes, scopes);
  EXPECT_EQ(ParkedBlocks(&budget), 0u);

  // Clear drops what was buffered; PassThroughTo forwards without buffering
  // until the next Clear, which buffers again.
  fill(&buffer);
  buffer.Clear();
  EXPECT_EQ(ParkedBlocks(&budget), 0u);
  RecordingSink direct;
  buffer.PassThroughTo(&direct);
  fill(&buffer);
  EXPECT_EQ(direct.scopes, scopes);
  EXPECT_EQ(ParkedBlocks(&budget), 0u);
  RecordingSink nothing;
  buffer.FlushTo(&nothing);
  EXPECT_TRUE(nothing.scopes.empty());
  buffer.Clear();
  fill(&buffer);
  RecordingSink again;
  buffer.FlushTo(&again);
  EXPECT_EQ(again.scopes, scopes);
  EXPECT_EQ(budget.Tag(ChunkBuffer::kParkedTag)->peak.load(),
            blocks * ChunkBuffer::kBlockBytes);
}

TEST(SchedulerTest, ParkedChunksAreChargedAndBoundedUnderAdversarialOrders) {
  // Runs a 2-worker Generate under worker_runner orders a shared pool can
  // produce. Every order must give the 1-worker bytes, keep the parked
  // peak within the packed bound, and release every parked block; an
  // order whose parking is deterministic must also overflow a budget just
  // above the no-steal working set in the `sched.parked` tag.
  TrillionGConfig config;
  config.scale = 16;
  config.edge_factor = 16;
  config.rng_seed = 42;
  // An injector of its own, unarmed, keeps a TG_FAULT_PLAN from the
  // environment out: the orders below are the schedule under test.
  fault::FaultInjector no_faults(fault::FaultPlan{}, 2);
  config.fault_injector = &no_faults;

  // One worker never parks: its peak is the no-steal working set (prefix
  // tables plus the largest scope lease).
  MemoryBudget solo;
  config.budget = &solo;
  config.num_workers = 1;
  const MergedRun reference = RunMerged(config);
  const std::uint64_t working_set = solo.peak_bytes();

  // What parking chunks [1, 16) of a range may cost: 4 B per edge, 2 B per
  // scope and one block per chunk.
  config.num_workers = 2;
  const model::NoiseVector noise = MakeRunNoise(config);
  const std::vector<std::vector<Chunk>> queues = BuildChunkQueues(
      noise, PartitionByCdf(noise, 2), config.chunks_per_worker);
  auto tail_bound = [&](int range) {
    std::uint64_t bytes = 0;
    for (std::size_t i = 1; i < queues[range].size(); ++i) {
      const Chunk& c = queues[range][i];
      bytes += ChunkBuffer::kBlockBytes;
      for (auto it = reference.scopes.lower_bound(c.lo);
           it != reference.scopes.end() && it->first < c.hi; ++it) {
        bytes += 4 * it->second.size() + 2;
      }
    }
    return bytes;
  };
  using Runner = std::function<void(std::vector<std::function<void()>>&)>;
  auto sequential = [](std::vector<int> order) -> Runner {
    return [order](std::vector<std::function<void()>>& bodies) {
      for (int b : order) bodies[b]();
    };
  };
  const Runner threads = [](std::vector<std::function<void()>>& bodies) {
    std::vector<std::thread> running;
    for (auto& body : bodies) running.emplace_back(body);
    for (std::thread& t : running) t.join();
  };
  struct Order {
    const char* name;
    Runner runner;
    std::uint64_t bound;
    bool deterministic;
  };
  const std::vector<Order> orders = {
      // Body 0 drains range 0 in order, then steals range 1 from the tail:
      // chunks 15..1 park and chunk 0 writes in place.
      {"forward", sequential({0, 1}), tail_bound(1), true},
      // Body 1 runs to completion first, as the daemon's pool can: it
      // steals range 0 from the tail and parks 15 chunks.
      {"reversed", sequential({1, 0}), tail_bound(0), true},
      // Real threads: what parks depends on timing, so the bound counts
      // every chunk that can park.
      {"threads", threads, tail_bound(0) + tail_bound(1), false},
  };
  for (const Order& order : orders) {
    SCOPED_TRACE(order.name);
    MemoryBudget budget;
    config.budget = &budget;
    config.worker_runner = order.runner;
    const MergedRun run = RunMerged(config);
    EXPECT_EQ(run.scopes, reference.scopes);
    const MemoryBudget::TagStats* parked =
        budget.Tag(ChunkBuffer::kParkedTag);
    EXPECT_LE(parked->peak.load(), order.bound);
    EXPECT_EQ(parked->used.load(), 0u);
    if (!order.deterministic) continue;
    EXPECT_GE(parked->peak.load(), 15 * ChunkBuffer::kBlockBytes);

    // Until the thief parks, usage stays within the working set; its parked
    // blocks then overflow a cap one byte above it, because 15 parked chunks
    // outweigh the gap between the thief's scope lease and the largest.
    const std::uint64_t limit = working_set + 1;
    ASSERT_LT(limit, budget.peak_bytes());
    MemoryBudget capped(limit);
    config.budget = &capped;
    try {
      RunMerged(config);
      ADD_FAILURE() << "a " << limit << "-byte budget held the parked chunks";
    } catch (const OomError& e) {
      EXPECT_EQ(e.report().tag, ChunkBuffer::kParkedTag) << e.what();
    }
  }
}

TEST(SchedulerTest, WorkerExceptionPropagates) {
  // Chunk 2 throws after emitting its scope. It never commits: the hook
  // sees only earlier chunks and the range never finishes. One worker
  // writes chunk 2 in place, so its scope is in the sink, past the last
  // committed chunk — the tail a resumed run truncates.
  for (int workers : {1, 2}) {
    std::vector<std::vector<Chunk>> queues(workers);
    for (int i = 0; i < 4; ++i) {
      queues[i % workers].push_back(Chunk{0, static_cast<std::uint32_t>(i),
                                          static_cast<VertexId>(i),
                                          static_cast<VertexId>(i + 1)});
    }
    VectorSink sink;
    std::vector<ScopeSink*> sinks = {&sink};
    std::vector<std::uint32_t> committed;
    SchedulerOptions options;
    options.on_chunk_commit = [&](const Chunk& c, ScopeSink*) {
      committed.push_back(c.seq);
    };
    auto make_worker = [](int) -> ChunkFn {
      return [](const Chunk& c, ChunkBuffer* buffer) {
        VertexId v = c.lo;
        buffer->ConsumeScope(c.lo, &v, 1);
        if (c.seq == 2) throw OomError("simulated");
      };
    };
    EXPECT_THROW(RunWorkStealing(queues, sinks, make_worker, options),
                 OomError);
    for (std::uint32_t seq : committed) EXPECT_LT(seq, 2u);
    EXPECT_EQ(sink.finishes(), 0);
    if (workers == 1) {
      EXPECT_EQ(committed, (std::vector<std::uint32_t>{0, 1}));
      EXPECT_EQ(sink.scopes().count(2), 1u);
    }
  }
}

TEST(SchedulerTest, EmptyRangeStillGetsFinish) {
  // A sink whose range received zero chunks must still observe Finish().
  std::vector<std::vector<Chunk>> queues(2);
  queues[0].push_back(Chunk{0, 0, 0, 1});
  VectorSink with_work, without_work;
  std::vector<ScopeSink*> sinks = {&with_work, &without_work};
  auto make_worker = [](int) -> ChunkFn {
    return [](const Chunk& c, ChunkBuffer* buffer) {
      VertexId v = c.lo;
      buffer->ConsumeScope(c.lo, &v, 1);
    };
  };
  RunWorkStealing(queues, sinks, make_worker);
  EXPECT_EQ(with_work.finishes(), 1);
  EXPECT_EQ(without_work.finishes(), 1);
}

TEST(SchedulerTest, BuildChunkQueuesCoversRangesExactly) {
  model::NoiseVector noise(model::SeedMatrix::Graph500(), 12);
  const std::vector<VertexId> boundaries = PartitionByCdf(noise, 4);
  const auto queues = BuildChunkQueues(noise, boundaries, 8);
  ASSERT_EQ(queues.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(queues[r].size(), 8u);
    EXPECT_EQ(queues[r].front().lo, boundaries[r]);
    EXPECT_EQ(queues[r].back().hi, boundaries[r + 1]);
    for (std::size_t i = 0; i < queues[r].size(); ++i) {
      const Chunk& c = queues[r][i];
      EXPECT_EQ(c.range, r);
      EXPECT_EQ(c.seq, i);
      EXPECT_LE(c.lo, c.hi);
      if (i > 0) {
        EXPECT_EQ(c.lo, queues[r][i - 1].hi);
      }
    }
  }
}

TEST(SchedulerTest, CpuImbalanceMaxOverMean) {
  EXPECT_DOUBLE_EQ(CpuImbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(CpuImbalance({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(CpuImbalance({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(CpuImbalance({3.0, 1.0}), 1.5);
}

TEST(TrillionGConfigTest, NumEdgesLargeInBoundsProduct) {
  TrillionGConfig config;
  config.scale = 40;
  config.edge_factor = std::uint64_t{1} << 23;
  EXPECT_EQ(config.NumEdges(), std::uint64_t{1} << 63);  // near the top, exact
  config.num_edges = 123;
  EXPECT_EQ(config.NumEdges(), 123u);  // explicit |E| bypasses the product
}

TEST(TrillionGConfigTest, NumEdgesOverflowIsFatal) {
  TrillionGConfig config;
  config.scale = 44;
  config.edge_factor = std::uint64_t{1} << 44;  // 2^88 cannot fit
  EXPECT_DEATH(config.NumEdges(), "overflows uint64");
}

}  // namespace
}  // namespace tg::core
