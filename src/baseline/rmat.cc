#include "baseline/rmat.h"

#include <algorithm>
#include <bit>

#include "storage/external_sorter.h"
#include "util/flat_set64.h"

namespace tg::baseline {

RmatPrefixTables::RmatPrefixTables(int n, int levels,
                                   const LevelEntry& entry) {
  const int cells = n * n;
  TG_CHECK_MSG(cells <= 256, "a level must fit one 256-outcome group");
  int per_group = 1;
  for (int outcomes = cells * cells; outcomes <= 256; outcomes *= cells) {
    ++per_group;
  }
  for (int l0 = 0; l0 < levels; l0 += per_group) {
    const int m = std::min(per_group, levels - l0);
    Group group;
    group.radix = 1;
    int outcomes = 1;
    for (int j = 0; j < m; ++j) {
      group.radix *= n;
      outcomes *= cells;
    }
    const std::size_t padded = std::bit_ceil(static_cast<unsigned>(outcomes));
    group.u_digits.resize(padded, 0);
    group.v_digits.resize(padded, 0);
    std::vector<double> weights(padded, 0.0);
    for (int p = 0; p < outcomes; ++p) {
      // Outcome p in base n^2, one cell (row * n + col) per level, first
      // level of the group in the most significant digit: the MSB-first
      // order of the recursive descent.
      double w = 1.0;
      int u = 0, v = 0;
      for (int j = 0, place = outcomes / cells; j < m; ++j, place /= cells) {
        const int cell = p / place % cells;
        const int row = cell / n;
        const int col = cell % n;
        w *= entry(l0 + j, row, col);
        u = u * n + row;
        v = v * n + col;
      }
      weights[p] = w;
      group.u_digits[p] = static_cast<std::uint8_t>(u);
      group.v_digits[p] = static_cast<std::uint8_t>(v);
    }
    group.table = rng::PackedAliasTable(weights);
    groups_.push_back(std::move(group));
  }
}

RmatPrefixTables::RmatPrefixTables(const model::NoiseVector& noise)
    : RmatPrefixTables(2, noise.levels(), [&](int level, int row, int col) {
        return noise.Entry(level, row, col);
      }) {}

RmatPrefixTables::RmatPrefixTables(const model::SeedMatrixN& seed, int levels)
    : RmatPrefixTables(seed.n(), levels, [&](int, int row, int col) {
        return seed.Entry(row, col);
      }) {}

Edge RmatPrefixTables::Sample(rng::Rng* rng) const {
  VertexId u = 0, v = 0;
  for (const Group& group : groups_) {
    const std::uint32_t p = group.table.Sample(rng->NextUint64());
    u = u * group.radix + group.u_digits[p];
    v = v * group.radix + group.v_digits[p];
  }
  return Edge{u, v};
}

WesStats SampleUniqueEdges(const RmatPrefixTables& tables, rng::Rng* rng,
                           VertexId num_vertices, std::uint64_t target,
                           MemoryBudget* budget, const char* tag,
                           const EdgeConsumer& consume) {
  TG_CHECK_MSG(target <= num_vertices * num_vertices / 2,
               "|E| must be well below |V|^2 for rejection to terminate");
  WesStats stats;
  FlatSet64 dedup(static_cast<std::size_t>(target));
  ScopedAllocation dedup_mem(budget, dedup.MemoryBytes(), tag);
  stats.peak_bytes = dedup_mem.bytes();
  while (dedup.size() < target) {
    const Edge e = tables.Sample(rng);
    ++stats.num_generated;
    if (dedup.Insert(e.src * num_vertices + e.dst)) {
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

WesStats RmatMem(const RmatOptions& options, const EdgeConsumer& consume) {
  TG_CHECK_MSG(2 * options.scale <= 48,
               "RMAT-mem packs edges into 48-bit keys; scale too large");
  const RmatPrefixTables tables(model::MakeNskgNoise(
      options.seed, options.scale, options.noise, options.rng_seed));
  rng::Rng rng(options.rng_seed, /*stream=*/2);
  return SampleUniqueEdges(tables, &rng, options.NumVertices(),
                           options.NumEdges(), options.budget,
                           "baseline.rmat.edge_set", consume);
}

WesStats RmatDisk(const RmatDiskOptions& options, const EdgeConsumer& consume) {
  const RmatPrefixTables tables(model::MakeNskgNoise(
      options.seed, options.scale, options.noise, options.rng_seed));
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
