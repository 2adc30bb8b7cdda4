#ifndef TRILLIONG_BASELINE_WESP_H_
#define TRILLIONG_BASELINE_WESP_H_

#include <functional>
#include <string>
#include <vector>

#include "baseline/rmat.h"
#include "cluster/sim_cluster.h"
#include "model/seed_matrix.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace tg::baseline {

/// The merge-based parallel WES approach of Section 3.2 (Algorithm 3),
/// called RMAT/p in the evaluation: every worker generates |E|/P * (1+eps)
/// raw RMAT edges over the whole matrix, edges are shuffled to their owner
/// (block partition by source vertex — which concentrates the power-law head
/// on machine 0, reproducing the workload skew the paper describes), and
/// each worker merges its partition while eliminating duplicates.
struct WespOptions {
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  int scale = 20;
  std::uint64_t num_edges = 0;  ///< 0 -> 16 * |V|
  double noise = 0.0;
  std::uint64_t rng_seed = 42;
  double epsilon = 0.01;  ///< oversampling factor (Section 3.2)
  /// false: WES/p-mem (sort+unique in RAM). true: WES/p-disk (external sort).
  bool disk = false;
  std::string temp_dir = ".";
  std::size_t sort_buffer_items = 1 << 20;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const {
    return num_edges != 0 ? num_edges : std::uint64_t{16} << scale;
  }
};

struct WespStats {
  std::uint64_t num_edges = 0;       ///< unique edges after the merge
  std::uint64_t num_generated = 0;   ///< raw edges before dedup
  std::uint64_t shuffled_bytes = 0;  ///< cross-machine wire traffic
  std::uint64_t spilled_bytes = 0;   ///< disk traffic (disk variant)
  std::uint64_t peak_machine_bytes = 0;
  std::uint64_t max_partition_edges = 0;  ///< skew indicator (largest inbox)
  double generate_seconds = 0;
  double shuffle_seconds = 0;  ///< simulated network time
  double merge_seconds = 0;
};

/// The generated edges after the shuffle, and what the two phases cost.
struct ShuffledEdges {
  std::vector<std::vector<Edge>> inbox;  ///< per destination worker
  double generate_seconds = 0;  ///< max per-worker CPU of generation
  double shuffle_cpu_seconds = 0;  ///< concatenation CPU, per machine
};

/// The generation and shuffle phases WES/p (Algorithm 3 lines 1-7) and
/// Graph500 (Appendix D) share. Worker w draws edges_per_worker[w] edges
/// from `tables` on RNG stream stream_base + w inside a `span` span;
/// route(&edge) returns the edge's destination worker and may relabel the
/// edge. The cluster then shuffles the outboxes over its network model
/// (reset first, so network_seconds() and shuffled_bytes() are this
/// shuffle's) and every machine budget is released. With charge_buffers,
/// each outbox is charged to its machine under "cluster.shuffle_buf" every
/// 64 Ki edges and each inbox after the shuffle; the charges stay until the
/// caller releases them.
template <typename Route>
ShuffledEdges GenerateAndShuffle(
    cluster::SimCluster* cluster, const RmatPrefixTables& tables,
    std::uint64_t rng_seed, std::uint64_t stream_base, const char* span,
    const std::vector<std::uint64_t>& edges_per_worker, Route route,
    bool charge_buffers) {
  const int workers = cluster->num_workers();
  ShuffledEdges result;
  std::vector<std::vector<std::vector<Edge>>> outbox(workers);
  result.generate_seconds = cluster->RunParallel([&](int w) {
    obs::Span generate_span(span);
    rng::Rng rng(rng_seed, stream_base + static_cast<std::uint64_t>(w));
    auto& buckets = outbox[w];
    buckets.resize(workers);
    MemoryBudget* budget = cluster->worker_budget(w);
    MemoryBudget::TagStats* shuffle_tag = budget->Tag("cluster.shuffle_buf");
    const std::uint64_t count = edges_per_worker[w];
    std::uint64_t registered = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      Edge e = tables.Sample(&rng);
      const int owner = route(&e);
      buckets[owner].push_back(e);
      // Register outbox growth in coarse chunks to keep the hot loop cheap.
      if (charge_buffers && (i & 0xFFFF) == 0) {
        const std::uint64_t now = i * sizeof(Edge);
        budget->Allocate(now - registered, shuffle_tag);
        registered = now;
      }
    }
    if (charge_buffers) {
      budget->Allocate(count * sizeof(Edge) - registered, shuffle_tag);
    }
  });

  cluster->ResetNetworkClock();
  const double cpu_start = ThreadCpuSeconds();
  result.inbox = cluster->Shuffle(std::move(outbox));
  // The concatenation CPU would be spread across the machines of a real
  // cluster; the wire time is simulated.
  result.shuffle_cpu_seconds =
      (ThreadCpuSeconds() - cpu_start) / cluster->num_machines();
  // Outboxes were freed by the shuffle; swap the registration to the inbox.
  for (int m = 0; m < cluster->num_machines(); ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  if (charge_buffers) {
    for (int w = 0; w < workers; ++w) {
      MemoryBudget* budget = cluster->worker_budget(w);
      budget->Allocate(result.inbox[w].size() * sizeof(Edge),
                       budget->Tag("cluster.shuffle_buf"));
    }
  }
  return result;
}

/// Per-worker edge consumer factory; pass nullptr to discard edges.
using WorkerConsumerFactory = std::function<EdgeConsumer(int worker)>;

WespStats RunWesp(cluster::SimCluster* cluster, const WespOptions& options,
                  const WorkerConsumerFactory& consumer_factory = nullptr);

}  // namespace tg::baseline

#endif  // TRILLIONG_BASELINE_WESP_H_
