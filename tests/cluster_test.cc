#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/network_model.h"
#include "cluster/sim_cluster.h"
#include "cluster/trilliong_cluster.h"
#include "core/prefix_tables.h"
#include "core/trilliong.h"

namespace tg::cluster {
namespace {

/// Each worker's scopes as bytes (vertex, degree, adjacency), one string per
/// shard, the boundaries the sinks were created with, and how many sinks
/// received Finish().
struct ShardBytes {
  explicit ShardBytes(int workers)
      : shards(workers), boundaries(workers + 1) {}

  core::SinkFactory Factory() {
    class Sink : public core::ScopeSink {
     public:
      Sink(std::string* out, std::atomic<int>* finished)
          : out_(out), finished_(finished) {}
      void ConsumeScope(VertexId u, const VertexId* adj,
                        std::size_t n) override {
        Append(u);
        Append(n);
        for (std::size_t i = 0; i < n; ++i) Append(adj[i]);
      }
      Status Finish() override {
        finished_->fetch_add(1);
        return Status::Ok();
      }

     private:
      void Append(std::uint64_t v) {
        out_->append(reinterpret_cast<const char*>(&v), sizeof(v));
      }
      std::string* out_;
      std::atomic<int>* finished_;
    };
    return [this](int w, VertexId lo,
                  VertexId hi) -> std::unique_ptr<core::ScopeSink> {
      boundaries[w] = lo;
      boundaries[w + 1] = hi;
      return std::make_unique<Sink>(&shards[w], &finished);
    };
  }

  std::vector<std::string> shards;
  std::vector<VertexId> boundaries;
  std::atomic<int> finished{0};
};

core::TrillionGConfig SmallConfig() {
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 8;
  config.rng_seed = 77;
  return config;
}

TEST(NetworkModelTest, TransferTimeScalesWithBytes) {
  NetworkModel net = NetworkModel::OneGigabitEthernet();
  double t1 = net.TransferSeconds(125'000'000);  // 1 Gbit of payload
  EXPECT_NEAR(t1, 1.0, 0.01);
  double t2 = net.TransferSeconds(250'000'000);
  EXPECT_NEAR(t2 / t1, 2.0, 0.01);
}

TEST(NetworkModelTest, InfinibandIs100xFaster) {
  std::uint64_t bytes = 1ULL << 30;
  double slow = NetworkModel::OneGigabitEthernet().TransferSeconds(bytes);
  double fast = NetworkModel::InfinibandEdr().TransferSeconds(bytes);
  EXPECT_NEAR(slow / fast, 100.0, 1.0);
}

TEST(SimClusterTest, TopologyAccessors) {
  SimCluster cluster({3, 4, 0, {}});
  EXPECT_EQ(cluster.num_machines(), 3);
  EXPECT_EQ(cluster.num_workers(), 12);
  EXPECT_EQ(cluster.MachineOfWorker(0), 0);
  EXPECT_EQ(cluster.MachineOfWorker(3), 0);
  EXPECT_EQ(cluster.MachineOfWorker(4), 1);
  EXPECT_EQ(cluster.MachineOfWorker(11), 2);
  EXPECT_EQ(cluster.worker_budget(5), cluster.machine_budget(1));
}

TEST(SimClusterTest, RunParallelRunsEveryWorkerOnce) {
  SimCluster cluster({2, 3, 0, {}});
  std::vector<std::atomic<int>> hits(6);
  cluster.RunParallel([&](int w) { hits[w].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SimClusterTest, RunParallelPropagatesException) {
  SimCluster cluster({2, 2, 0, {}});
  EXPECT_THROW(cluster.RunParallel([](int w) {
    if (w == 2) throw tg::OomError("worker 2 died");
  }),
               tg::OomError);
}

TEST(SimClusterTest, ShuffleDeliversAllRecordsToRightWorkers) {
  SimCluster cluster({2, 2, 0, {}});
  const int n = cluster.num_workers();
  std::vector<std::vector<std::vector<int>>> outbox(n);
  for (int src = 0; src < n; ++src) {
    outbox[src].resize(n);
    for (int dst = 0; dst < n; ++dst) {
      // src sends (src*10 + dst) repeated (src + dst) times.
      outbox[src][dst].assign(src + dst, src * 10 + dst);
    }
  }
  auto inbox = cluster.Shuffle(std::move(outbox));
  for (int dst = 0; dst < n; ++dst) {
    std::size_t expected = 0;
    for (int src = 0; src < n; ++src) expected += src + dst;
    EXPECT_EQ(inbox[dst].size(), expected);
    for (int v : inbox[dst]) EXPECT_EQ(v % 10, dst);
  }
}

TEST(SimClusterTest, ShuffleChargesOnlyCrossMachineBytes) {
  SimCluster cluster({2, 1, 0, NetworkModel::OneGigabitEthernet()});
  std::vector<std::vector<std::vector<std::uint64_t>>> outbox(2);
  outbox[0].resize(2);
  outbox[1].resize(2);
  outbox[0][0].assign(1000, 1);  // intra-machine: free
  outbox[0][1].assign(500, 2);   // cross-machine
  auto inbox = cluster.Shuffle(std::move(outbox));
  EXPECT_EQ(cluster.shuffled_bytes(), 500 * sizeof(std::uint64_t));
  EXPECT_GT(cluster.network_seconds(), 0.0);
  EXPECT_EQ(inbox[0].size(), 1000u);
  EXPECT_EQ(inbox[1].size(), 500u);
}

TEST(SimClusterTest, SingleMachineShuffleIsFree) {
  SimCluster cluster({1, 4, 0, NetworkModel::OneGigabitEthernet()});
  std::vector<std::vector<std::vector<int>>> outbox(4);
  for (auto& row : outbox) row.resize(4, std::vector<int>(100, 7));
  cluster.Shuffle(std::move(outbox));
  EXPECT_EQ(cluster.shuffled_bytes(), 0u);
}

TEST(SimClusterTest, NetworkClockAccumulatesAndResets) {
  SimCluster cluster({2, 1, 0, NetworkModel::OneGigabitEthernet()});
  auto make_outbox = [] {
    std::vector<std::vector<std::vector<std::uint64_t>>> outbox(2);
    outbox[0].resize(2);
    outbox[1].resize(2);
    outbox[0][1].assign(1 << 16, 1);
    return outbox;
  };
  cluster.Shuffle(make_outbox());
  double t1 = cluster.network_seconds();
  cluster.Shuffle(make_outbox());
  EXPECT_NEAR(cluster.network_seconds(), 2 * t1, t1 * 0.01);
  cluster.ResetNetworkClock();
  EXPECT_EQ(cluster.network_seconds(), 0.0);
  EXPECT_EQ(cluster.shuffled_bytes(), 0u);
}

TEST(TrillionGClusterTest, OutputIdenticalToInProcessGenerate) {
  core::TrillionGConfig config;
  config.scale = 11;
  config.edge_factor = 8;
  config.rng_seed = 555;

  // Reference: single worker, in-process driver.
  std::map<tg::VertexId, std::vector<tg::VertexId>> reference;
  class Collect : public core::ScopeSink {
   public:
    explicit Collect(std::map<tg::VertexId, std::vector<tg::VertexId>>* out)
        : out_(out) {}
    void ConsumeScope(tg::VertexId u, const tg::VertexId* adj,
                      std::size_t n) override {
      (*out_)[u].assign(adj, adj + n);
    }
    std::map<tg::VertexId, std::vector<tg::VertexId>>* out_;
  };
  {
    config.num_workers = 1;
    Collect sink(&reference);
    core::GenerateToSink(config, &sink);
  }

  // Cluster run with the Figure 6 combine/gather/repartition/scatter
  // protocol must produce the same graph (scope RNGs are
  // partition-independent).
  SimCluster cluster({2, 2, 0, {}});
  std::map<tg::VertexId, std::vector<tg::VertexId>> merged;
  std::mutex mu;
  ClusterGenerateStats stats = GenerateOnCluster(
      &cluster, config,
      [&](int, tg::VertexId, tg::VertexId) -> std::unique_ptr<core::ScopeSink> {
        class Locked : public core::ScopeSink {
         public:
          Locked(std::map<tg::VertexId, std::vector<tg::VertexId>>* out,
                 std::mutex* mu)
              : out_(out), mu_(mu) {}
          void ConsumeScope(tg::VertexId u, const tg::VertexId* adj,
                            std::size_t n) override {
            std::lock_guard<std::mutex> lock(*mu_);
            (*out_)[u].assign(adj, adj + n);
          }
          std::map<tg::VertexId, std::vector<tg::VertexId>>* out_;
          std::mutex* mu_;
        };
        return std::make_unique<Locked>(&merged, &mu);
      });
  EXPECT_EQ(merged, reference);
  EXPECT_GT(stats.generate.num_edges, 0u);
  EXPECT_GT(stats.combine_seconds, 0.0);
  EXPECT_GT(stats.control_bytes, 0u);
  EXPECT_GT(stats.TotalSeconds(), 0.0);
}

TEST(TrillionGClusterTest, RespectsMachineBudgets) {
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 16;
  SimCluster cluster({2, 1, /*memory=*/64, {}});  // 64 bytes: instant OOM
  EXPECT_THROW(
      GenerateOnCluster(&cluster, config,
                        [](int, tg::VertexId, tg::VertexId)
                            -> std::unique_ptr<core::ScopeSink> {
                          return std::make_unique<core::CountingSink>();
                        }),
      tg::OomError);
}

TEST(TrillionGClusterTest, ControlTrafficIsTiny) {
  // Figure 6's gather moves bin summaries only — "network communication
  // overhead is quite small since just bin sizes are sent".
  core::TrillionGConfig config;
  config.scale = 14;
  config.edge_factor = 16;
  SimCluster cluster({4, 1, 0, NetworkModel::OneGigabitEthernet()});
  ClusterGenerateStats stats = GenerateOnCluster(
      &cluster, config,
      [](int, tg::VertexId, tg::VertexId) -> std::unique_ptr<core::ScopeSink> {
        return std::make_unique<core::CountingSink>();
      });
  // Control bytes are orders of magnitude below the edge data volume.
  EXPECT_LT(stats.control_bytes, config.NumEdges() * sizeof(tg::Edge) / 1000);
  EXPECT_LT(stats.gather_scatter_seconds, 0.01);
}

// The cluster driver is Figure 6's repartition plus one core::Generate: on
// the boundaries it computed, an in-process run writes the same shards and
// reports the same GenerateStats.
TEST(TrillionGClusterTest, AgreesWithCoreGenerateOnItsBoundaries) {
  core::TrillionGConfig config = SmallConfig();
  SimCluster cluster({2, 2, 0, {}});
  ShardBytes on_cluster(4);
  const core::GenerateStats c =
      GenerateOnCluster(&cluster, config, on_cluster.Factory()).generate;

  config.num_workers = 4;
  config.precomputed_boundaries = on_cluster.boundaries;
  ShardBytes in_process(4);
  const core::GenerateStats p = core::Generate(config, in_process.Factory());

  EXPECT_EQ(in_process.boundaries, on_cluster.boundaries);
  EXPECT_EQ(in_process.shards, on_cluster.shards);
  EXPECT_EQ(c.num_edges, p.num_edges);
  EXPECT_EQ(c.num_scopes, p.num_scopes);
  EXPECT_EQ(c.max_degree, p.max_degree);
  EXPECT_EQ(c.cdf_evaluations, p.cdf_evaluations);
  EXPECT_EQ(c.rec_vec_builds, p.rec_vec_builds);
  EXPECT_EQ(c.table_scopes, p.table_scopes);
  EXPECT_EQ(c.table_edges, p.table_edges);
  EXPECT_EQ(c.sched_chunks, p.sched_chunks);
  EXPECT_GT(c.table_edges, 0u);
  EXPECT_GT(c.generate_seconds, 0.0);
  EXPECT_EQ(on_cluster.finished.load(), 4);
}

TEST(TrillionGClusterTest, HonorsCancelFlagAndWorkerRunner) {
  core::TrillionGConfig config = SmallConfig();

  // A flag set before the run: no chunk runs and no sink sees Finish().
  std::atomic<bool> cancel{true};
  config.cancel_flag = &cancel;
  SimCluster cancelled_cluster({2, 2, 0, {}});
  ShardBytes cancelled(4);
  const core::GenerateStats stopped =
      GenerateOnCluster(&cancelled_cluster, config, cancelled.Factory())
          .generate;
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_EQ(stopped.sched_chunks, 0u);
  EXPECT_EQ(cancelled.finished.load(), 0);
  config.cancel_flag = nullptr;

  SimCluster threaded_cluster({2, 2, 0, {}});
  ShardBytes threaded(4);
  GenerateOnCluster(&threaded_cluster, config, threaded.Factory());

  // One thread runs the worker bodies last to first; each machine's last
  // worker drains its machine-mate's chunks by stealing.
  int bodies_run = 0;
  config.worker_runner = [&](std::vector<std::function<void()>>& bodies) {
    for (auto body = bodies.rbegin(); body != bodies.rend(); ++body) {
      ++bodies_run;
      (*body)();
    }
  };
  SimCluster sequential_cluster({2, 2, 0, {}});
  ShardBytes sequential(4);
  GenerateOnCluster(&sequential_cluster, config, sequential.Factory());
  EXPECT_EQ(bodies_run, 4);
  EXPECT_EQ(sequential.shards, threaded.shards);
  EXPECT_EQ(sequential.finished.load(), 4);
}

// Threads of one machine share its memory, so they share one prefix-table
// set, charged once to the machine's budget.
TEST(TrillionGClusterTest, BuildsOneTableSetPerMachine) {
  const core::TrillionGConfig config = SmallConfig();
  SimCluster cluster({2, 2, 0, {}});
  GenerateOnCluster(&cluster, config,
                    [](int, VertexId, VertexId)
                        -> std::unique_ptr<core::ScopeSink> {
                      return std::make_unique<core::CountingSink>();
                    });
  const core::AvsPrefixTables tables(core::MakeRunNoise(config));
  for (int m = 0; m < cluster.num_machines(); ++m) {
    std::uint64_t peak = 0;
    for (const auto& usage : cluster.machine_budget(m)->TagBreakdown()) {
      if (usage.tag == "core.prefix_tables") peak = usage.peak_bytes;
    }
    EXPECT_EQ(peak, tables.MemoryBytes()) << "machine " << m;
  }
}

TEST(SimClusterTest, MachineBudgetsAreIndependent) {
  SimCluster cluster({2, 2, 1000, {}});
  cluster.machine_budget(0)->Allocate(900);
  // Machine 1's budget is untouched.
  cluster.machine_budget(1)->Allocate(900);
  EXPECT_THROW(cluster.machine_budget(0)->Allocate(200), tg::OomError);
  EXPECT_EQ(cluster.MaxMachinePeakBytes(), 900u);
}

}  // namespace
}  // namespace tg::cluster
