#include "baseline/wesp.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/external_sorter.h"

namespace tg::baseline {

WespStats RunWesp(cluster::SimCluster* cluster, const WespOptions& options,
                  const WorkerConsumerFactory& consumer_factory) {
  const int workers = cluster->num_workers();
  const VertexId num_vertices = options.NumVertices();
  const std::uint64_t target = options.NumEdges();
  const auto per_worker_raw = static_cast<std::uint64_t>(
      static_cast<double>(target) / workers * (1.0 + options.epsilon));
  // Owner of an edge: block partition by source vertex (naive and skewed —
  // see header comment).
  const VertexId block = (num_vertices + workers - 1) / workers;

  // Shared read-only prefix tables (Sample is const); each worker keeps its
  // own RNG stream.
  const RmatPrefixTables tables(model::MakeNskgNoise(
      options.seed, options.scale, options.noise, options.rng_seed));

  WespStats stats;

  // --- Generation and shuffle (Algorithm 3 lines 1-7). ---
  // The mem variant holds the generated edges in RAM and registers them
  // against the machine budget. The disk variant conceptually spools them
  // (a real implementation writes run files before the shuffle), so only
  // its bounded sort buffer counts against the budget.
  ShuffledEdges shuffled = GenerateAndShuffle(
      cluster, tables, options.rng_seed, /*stream_base=*/1000,
      "wesp.generate", std::vector<std::uint64_t>(workers, per_worker_raw),
      [&](Edge* e) { return static_cast<int>(e->src / block); },
      /*charge_buffers=*/!options.disk);
  std::vector<std::vector<Edge>>& inbox = shuffled.inbox;
  stats.generate_seconds = shuffled.generate_seconds;
  stats.num_generated = static_cast<std::uint64_t>(per_worker_raw) * workers;
  for (const std::vector<Edge>& edges : inbox) {
    stats.max_partition_edges =
        std::max<std::uint64_t>(stats.max_partition_edges, edges.size());
  }
  stats.shuffle_seconds =
      cluster->network_seconds() + shuffled.shuffle_cpu_seconds;
  stats.shuffled_bytes = cluster->shuffled_bytes();

  // --- Merge phase (Algorithm 3 lines 8-9). ---
  std::atomic<std::uint64_t> unique_edges{0};
  std::atomic<std::uint64_t> spilled{0};
  stats.merge_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("wesp.merge");
    EdgeConsumer consume =
        consumer_factory ? consumer_factory(w) : EdgeConsumer();
    std::uint64_t count = 0;
    if (!options.disk) {
      // In-memory: sort + unique in place (the inbox bytes are already
      // registered against the machine budget).
      std::vector<Edge>& edges = inbox[w];
      std::sort(edges.begin(), edges.end());
      auto end = std::unique(edges.begin(), edges.end());
      for (auto it = edges.begin(); it != end; ++it) {
        if (consume) consume(*it);
        ++count;
      }
    } else {
      // The sorter charges its run buffer against the machine budget
      // itself (tag "storage.extsort.run").
      storage::ExternalSorter<Edge> sorter(
          {options.temp_dir, options.sort_buffer_items,
           "wesp_disk_w" + std::to_string(w), cluster->worker_budget(w)});
      // Stream the inbox into the sorter, shrinking the in-memory partition
      // (a real disk implementation would have received straight to disk).
      std::vector<Edge>& edges = inbox[w];
      for (const Edge& e : edges) sorter.Add(e);
      edges.clear();
      edges.shrink_to_fit();
      count = sorter.Merge(/*dedup=*/true, [&](const Edge& e) {
        if (consume) consume(e);
      });
      spilled.fetch_add(sorter.bytes_spilled());
    }
    unique_edges.fetch_add(count);
  });
  stats.num_edges = unique_edges.load();
  stats.spilled_bytes = spilled.load();
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  obs::GetCounter("wesp.edges_generated")->Add(stats.num_generated);
  obs::GetCounter("wesp.edges_unique")->Add(stats.num_edges);
  cluster->RecordMachineStats();

  // Release the remaining inbox registrations.
  for (int m = 0; m < cluster->num_machines(); ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  return stats;
}

}  // namespace tg::baseline
