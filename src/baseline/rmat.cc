#include "baseline/rmat.h"

#include <algorithm>

#include "storage/external_sorter.h"
#include "util/flat_set64.h"

namespace tg::baseline {

RmatPrefixTables::RmatPrefixTables(const model::NoiseVector& noise) {
  const int levels = noise.levels();
  for (int l0 = 0; l0 < levels; l0 += kGroupLevels) {
    const int m = std::min(kGroupLevels, levels - l0);
    const int outcomes = 1 << (2 * m);
    Group group;
    group.levels = m;
    group.u_bits.resize(outcomes);
    group.v_bits.resize(outcomes);
    std::vector<double> weights(outcomes);
    for (int p = 0; p < outcomes; ++p) {
      // Outcome encoding: two bits per level (row bit high), first level of
      // the group in the most significant position: the MSB-first order of
      // the recursive descent.
      double w = 1.0;
      std::uint8_t ub = 0, vb = 0;
      for (int j = 0; j < m; ++j) {
        const int cell = (p >> (2 * (m - 1 - j))) & 3;
        const int row = cell >> 1;
        const int col = cell & 1;
        w *= noise.Entry(l0 + j, row, col);
        ub = static_cast<std::uint8_t>((ub << 1) | row);
        vb = static_cast<std::uint8_t>((vb << 1) | col);
      }
      weights[p] = w;
      group.u_bits[p] = ub;
      group.v_bits[p] = vb;
    }
    group.table = rng::PackedAliasTable(weights);
    groups_.push_back(std::move(group));
  }
}

Edge RmatPrefixTables::Sample(rng::Rng* rng) const {
  VertexId u = 0, v = 0;
  for (const Group& group : groups_) {
    const std::uint32_t p = group.table.Sample(rng->NextUint64());
    u = (u << group.levels) | group.u_bits[p];
    v = (v << group.levels) | group.v_bits[p];
  }
  return Edge{u, v};
}

namespace {

model::NoiseVector MakeNoise(const RmatOptions& options, int extra_stream) {
  if (options.noise <= 0.0) {
    return model::NoiseVector(options.seed, options.scale);
  }
  rng::Rng noise_rng(options.rng_seed,
                     0xA015E1ULL + static_cast<std::uint64_t>(extra_stream));
  return model::NoiseVector(options.seed, options.scale, options.noise,
                            &noise_rng);
}

std::uint64_t PackEdge(const Edge& e, int scale) {
  return (e.src << scale) | e.dst;
}

}  // namespace

WesStats RmatMem(const RmatOptions& options, const EdgeConsumer& consume) {
  TG_CHECK_MSG(2 * options.scale <= 48,
               "RMAT-mem packs edges into 48-bit keys; scale too large");
  const model::NoiseVector noise = MakeNoise(options, 0);
  rng::Rng rng(options.rng_seed, /*stream=*/2);
  const std::uint64_t target = options.NumEdges();
  TG_CHECK_MSG(target <= (options.NumVertices() * options.NumVertices()) / 2,
               "|E| must be well below |V|^2 for rejection to terminate");

  WesStats stats;
  FlatSet64 dedup(static_cast<std::size_t>(target));
  ScopedAllocation dedup_mem(options.budget, dedup.MemoryBytes(),
                             "baseline.rmat.edge_set");
  stats.peak_bytes = dedup_mem.bytes();

  const RmatPrefixTables tables(noise);
  while (dedup.size() < target) {
    Edge e = tables.Sample(&rng);
    ++stats.num_generated;
    if (dedup.Insert(PackEdge(e, options.scale))) {
      consume(e);
      ++stats.num_edges;
      if (dedup.MemoryBytes() > dedup_mem.bytes()) {
        dedup_mem.ResizeTo(dedup.MemoryBytes());
        stats.peak_bytes = std::max(stats.peak_bytes, dedup_mem.bytes());
      }
    }
  }
  return stats;
}

WesStats RmatDisk(const RmatDiskOptions& options, const EdgeConsumer& consume) {
  const model::NoiseVector noise = MakeNoise(options, 0);
  rng::Rng rng(options.rng_seed, /*stream=*/2);
  const std::uint64_t target = options.NumEdges();
  const auto raw_target = static_cast<std::uint64_t>(
      static_cast<double>(target) * (1.0 + options.epsilon));

  WesStats stats;
  // The sorter charges its own run buffer (tag "storage.extsort.run").
  storage::ExternalSorter<Edge> sorter(
      {options.temp_dir, options.sort_buffer_items, "rmat_disk",
       options.budget});
  stats.peak_bytes = sorter.buffer_bytes();

  const RmatPrefixTables tables(noise);
  for (std::uint64_t i = 0; i < raw_target; ++i) {
    sorter.Add(tables.Sample(&rng));
  }
  stats.num_generated = raw_target;

  std::uint64_t delivered = 0;
  sorter.Merge(/*dedup=*/true, [&](const Edge& e) {
    if (delivered < target) {
      consume(e);
      ++delivered;
    }
  });
  stats.num_edges = delivered;
  stats.spilled_bytes = sorter.bytes_spilled();
  return stats;
}

}  // namespace tg::baseline
