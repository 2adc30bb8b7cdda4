#include "baseline/graph500.h"

#include <algorithm>

#include "baseline/rmat.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "rng/random.h"
#include "util/stopwatch.h"

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

  const model::NoiseVector noise = [&] {
    if (options.noise <= 0.0) {
      return model::NoiseVector(options.seed, options.scale);
    }
    rng::Rng noise_rng(options.rng_seed, 0xA015E1ULL);
    return model::NoiseVector(options.seed, options.scale, options.noise,
                              &noise_rng);
  }();

  // Shared read-only prefix tables (Sample is const); per-worker RNG
  // streams are unchanged.
  const RmatPrefixTables tables(noise);

  Graph500Stats stats;

  // --- Phase 1: edge generation (each worker owns a contiguous slice of
  // edge indices; ownership of vertices is irrelevant thanks to scrambling).
  // Phase times are simulated cluster times: max per-worker CPU time (what
  // the phase takes when every worker has its own core) plus wire time.
  std::vector<std::vector<std::vector<Edge>>> outbox(workers);
  stats.generation_seconds = cluster->RunParallel([&](int w) {
    TG_SPAN("g500.generate");
    rng::Rng rng(options.rng_seed, 2000 + static_cast<std::uint64_t>(w));
    auto& buckets = outbox[w];
    buckets.resize(workers);
    MemoryBudget* budget = cluster->worker_budget(w);
    MemoryBudget::TagStats* shuffle_tag = budget->Tag("cluster.shuffle_buf");
    std::uint64_t begin = static_cast<std::uint64_t>(w) * per_worker;
    std::uint64_t end = std::min(begin + per_worker, total_edges);
    std::uint64_t registered = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      Edge e = tables.Sample(&rng);
      e.src = ScrambleVertex(e.src, options.scale, scramble_key);
      e.dst = ScrambleVertex(e.dst, options.scale, scramble_key);
      // Route to the machine owning the source block; spread across that
      // machine's workers by source for a deterministic layout.
      int machine = static_cast<int>(e.src / block);
      int dst_worker = machine * (workers / machines);
      buckets[dst_worker].push_back(e);
      if (((i - begin) & 0xFFFF) == 0) {
        std::uint64_t now = (i - begin) * sizeof(Edge);
        budget->Allocate(now - registered, shuffle_tag);
        registered = now;
      }
    }
    budget->Allocate((end - begin) * sizeof(Edge) - registered, shuffle_tag);
  });
  stats.num_edges = total_edges;

  // --- Phase 2: construction = shuffle + per-machine CSR assembly.
  cluster->ResetNetworkClock();
  double shuffle_cpu_start = ThreadCpuSeconds();
  std::vector<std::vector<Edge>> inbox = cluster->Shuffle(std::move(outbox));
  // The in-memory concatenation work would be spread over the machines.
  double shuffle_cpu = (ThreadCpuSeconds() - shuffle_cpu_start) / machines;
  for (int m = 0; m < machines; ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  for (int w = 0; w < workers; ++w) {
    MemoryBudget* budget = cluster->worker_budget(w);
    budget->Allocate(inbox[w].size() * sizeof(Edge),
                     budget->Tag("cluster.shuffle_buf"));
  }

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
  stats.construction_seconds =
      shuffle_cpu + assembly_seconds + stats.network_seconds;
  stats.peak_machine_bytes = cluster->MaxMachinePeakBytes();
  obs::GetCounter("g500.edges_generated")->Add(stats.num_edges);
  cluster->RecordMachineStats();

  for (int m = 0; m < machines; ++m) {
    cluster->machine_budget(m)->ReleaseAll();
  }
  return stats;
}

}  // namespace tg::baseline
