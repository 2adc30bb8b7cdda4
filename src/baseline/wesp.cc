#include "baseline/wesp.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/external_sorter.h"
#include "util/stopwatch.h"

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

  const model::NoiseVector noise = [&] {
    if (options.noise <= 0.0) {
      return model::NoiseVector(options.seed, options.scale);
    }
    rng::Rng noise_rng(options.rng_seed, 0xA015E1ULL);
    return model::NoiseVector(options.seed, options.scale, options.noise,
                              &noise_rng);
  }();

  // Shared read-only prefix tables (Sample is const); each worker keeps its
  // own RNG stream exactly as before.
  const RmatPrefixTables tables(noise);

  WespStats stats;

  // --- Generation phase (Algorithm 3 lines 1-6). ---
  // The mem variant holds the generated edges in RAM and registers them
  // against the machine budget. The disk variant conceptually spools them
  // (a real implementation writes run files before the shuffle), so only
  // its bounded sort buffer counts against the budget.
  const bool charge_buffers = !options.disk;
  std::vector<std::vector<std::vector<Edge>>> outbox(workers);
  stats.generate_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("wesp.generate");
    rng::Rng rng(options.rng_seed, 1000 + static_cast<std::uint64_t>(w));
    auto& buckets = outbox[w];
    buckets.resize(workers);
    MemoryBudget* budget = cluster->worker_budget(w);
    MemoryBudget::TagStats* shuffle_tag = budget->Tag("cluster.shuffle_buf");
    std::uint64_t registered = 0;
    for (std::uint64_t i = 0; i < per_worker_raw; ++i) {
      Edge e = tables.Sample(&rng);
      int owner = static_cast<int>(e.src / block);
      buckets[owner].push_back(e);
      // Register outbox growth in coarse chunks to keep the hot loop cheap.
      if (charge_buffers && (i & 0xFFFF) == 0) {
        std::uint64_t now = i * sizeof(Edge);
        budget->Allocate(now - registered, shuffle_tag);
        registered = now;
      }
    }
    if (charge_buffers) {
      budget->Allocate(per_worker_raw * sizeof(Edge) - registered,
                       shuffle_tag);
    }
  });
  stats.num_generated = static_cast<std::uint64_t>(per_worker_raw) * workers;

  // --- Shuffle phase (Algorithm 3 line 7). The concatenation CPU would be
  // spread across machines in a real cluster; the wire time is simulated.
  cluster->ResetNetworkClock();
  double shuffle_cpu_start = ThreadCpuSeconds();
  std::vector<std::vector<Edge>> inbox = cluster->Shuffle(std::move(outbox));
  double shuffle_cpu =
      (ThreadCpuSeconds() - shuffle_cpu_start) / cluster->num_machines();
  // Outboxes were freed by the shuffle; swap the registration to the inbox.
  for (int m = 0; m < cluster->num_machines(); ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  for (int w = 0; w < workers; ++w) {
    if (charge_buffers) {
      MemoryBudget* budget = cluster->worker_budget(w);
      budget->Allocate(inbox[w].size() * sizeof(Edge),
                       budget->Tag("cluster.shuffle_buf"));
    }
    stats.max_partition_edges =
        std::max<std::uint64_t>(stats.max_partition_edges, inbox[w].size());
  }
  stats.shuffle_seconds = cluster->network_seconds() + shuffle_cpu;
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
