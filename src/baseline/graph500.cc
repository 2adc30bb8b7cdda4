#include "baseline/graph500.h"

#include <algorithm>

#include "baseline/wesp.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "rng/random.h"

namespace tg::baseline {

VertexId ScrambleVertex(VertexId x, int scale, std::uint64_t key) {
  const VertexId mask = (scale >= 64) ? ~VertexId{0}
                                      : ((VertexId{1} << scale) - 1);
  const int shift = scale / 2 + 1;
  // Two rounds of (xor-key, odd multiply mod 2^scale, xorshift-right); every
  // step is bijective on scale-bit integers.
  x = (x ^ (key & mask)) & mask;
  x = (x * 0x9E3779B97F4A7C15ULL + 1) & mask;  // odd multiplier, bijective
  x ^= x >> shift;
  x = (x * 0xBF58476D1CE4E5B9ULL + (key | 1)) & mask;
  x ^= x >> shift;
  return x & mask;
}

Graph500Stats RunGraph500(cluster::SimCluster* cluster,
                          const Graph500Options& options,
                          const CsrConsumer& consume) {
  const int workers = cluster->num_workers();
  const int machines = cluster->num_machines();
  const VertexId num_vertices = options.NumVertices();
  const std::uint64_t total_edges = options.NumEdges();
  const std::uint64_t per_worker = (total_edges + workers - 1) / workers;
  const VertexId block = (num_vertices + machines - 1) / machines;
  const std::uint64_t scramble_key = rng::MixSeeds(options.rng_seed, 0x6500);

  // Shared read-only prefix tables (Sample is const); each worker keeps its
  // own RNG stream.
  const RmatPrefixTables tables(model::MakeNskgNoise(
      options.seed, options.scale, options.noise, options.rng_seed));
  // Each worker owns a contiguous slice of edge indices; ownership of
  // vertices is irrelevant thanks to scrambling.
  std::vector<std::uint64_t> edges_per_worker(workers);
  for (int w = 0; w < workers; ++w) {
    const std::uint64_t begin =
        std::min(static_cast<std::uint64_t>(w) * per_worker, total_edges);
    edges_per_worker[w] = std::min(per_worker, total_edges - begin);
  }

  Graph500Stats stats;

  // --- Phase 1: edge generation, then the shuffle that starts phase 2.
  // Phase times are simulated cluster times: max per-worker CPU time (what
  // the phase takes when every worker has its own core) plus wire time.
  ShuffledEdges shuffled = GenerateAndShuffle(
      cluster, tables, options.rng_seed, /*stream_base=*/2000,
      "g500.generate", edges_per_worker,
      [&](Edge* e) {
        e->src = ScrambleVertex(e->src, options.scale, scramble_key);
        e->dst = ScrambleVertex(e->dst, options.scale, scramble_key);
        // Route to the lead worker of the machine owning the source block.
        return static_cast<int>(e->src / block) * (workers / machines);
      },
      /*charge_buffers=*/true);
  std::vector<std::vector<Edge>>& inbox = shuffled.inbox;
  stats.generation_seconds = shuffled.generate_seconds;
  stats.num_edges = total_edges;

  // --- Phase 2: construction = shuffle + per-machine CSR assembly.
  // One CSR per machine (built by its first worker; Graph500's construction
  // is not the parallel-friendly part, which is the point of Figure 14(b)).
  double assembly_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("g500.csr_assembly");
    const int leads = workers / machines;
    if (w % leads != 0) return;
    int machine = w / leads;
    std::vector<Edge>& edges = inbox[w];
    MemoryBudget* budget = cluster->machine_budget(machine);

    VertexId lo = static_cast<VertexId>(machine) * block;
    VertexId hi = std::min<VertexId>(lo + block, num_vertices);
    std::vector<std::uint64_t> offsets(hi - lo + 1, 0);
    ScopedAllocation offsets_mem(budget, offsets.size() * sizeof(offsets[0]),
                                 "baseline.g500.csr");
    for (const Edge& e : edges) ++offsets[e.src - lo + 1];
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] += offsets[i - 1];
    }
    std::vector<VertexId> adj(edges.size());
    ScopedAllocation adj_mem(budget, adj.size() * sizeof(VertexId),
                             "baseline.g500.csr");
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    ScopedAllocation cursor_mem(budget, cursor.size() * sizeof(cursor[0]),
                                "baseline.g500.csr");
    for (const Edge& e : edges) adj[cursor[e.src - lo]++] = e.dst;
    // Sort each adjacency (CSR convention; also what the BFS kernel wants).
    for (VertexId u = lo; u < hi; ++u) {
      std::sort(adj.begin() + offsets[u - lo], adj.begin() + offsets[u - lo + 1]);
    }
    if (consume) consume(machine, lo, offsets, adj);
  });
  stats.network_seconds = cluster->network_seconds();
  stats.shuffled_bytes = cluster->shuffled_bytes();
  stats.construction_seconds = shuffled.shuffle_cpu_seconds +
                               assembly_seconds + stats.network_seconds;
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  obs::GetCounter("g500.edges_generated")->Add(stats.num_edges);
  cluster->RecordMachineStats();

  for (int m = 0; m < machines; ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  return stats;
}

}  // namespace tg::baseline
