#ifndef TRILLIONG_BASELINE_RMAT_H_
#define TRILLIONG_BASELINE_RMAT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/noise.h"
#include "model/seed_matrix.h"
#include "model/seed_matrix_n.h"
#include "rng/alias_table.h"
#include "rng/random.h"
#include "util/common.h"
#include "util/memory_budget.h"

namespace tg::baseline {

/// Per-edge consumer used by the edge-at-a-time baselines.
using EdgeConsumer = std::function<void(const Edge&)>;

/// The edge kernel of every R-MAT-family baseline: recursive region
/// selection on the adjacency matrix (Section 2.1, Figure 1(b)), sampled
/// through path-prefix probability tables (the arXiv 1905.03525 trick,
/// mirrored on the AVS side by core/prefix_tables.h). Each level picks one
/// of the n x n cells of that level's matrix. As many consecutive levels as
/// keep n^2m <= 256 form one group: the joint cell choices of a group are
/// one PackedAliasTable (zero-padded to a power of two), and a sampled
/// outcome decodes into m base-n source and destination digits. One raw
/// 64-bit draw per group: for n = 2 levels go four at a time, ceil(levels/4)
/// draws per edge. A NoiseVector (RMAT, SKG and NSKG; n = 2) and a constant
/// SeedMatrixN (FastKronecker) are the two sources of per-level matrices.
/// Build once; Sample is const and thread-safe.
class RmatPrefixTables {
 public:
  explicit RmatPrefixTables(const model::NoiseVector& noise);
  RmatPrefixTables(const model::SeedMatrixN& seed, int levels);

  /// Draws one edge; consumes exactly one NextUint64 per level group.
  Edge Sample(rng::Rng* rng) const;

 private:
  /// Weight of cell (row, col) of the level-`level` matrix, level 0 being
  /// the most significant (the first choice of the descent).
  using LevelEntry = std::function<double(int level, int row, int col)>;

  /// `levels` levels of n x n matrices; n <= 16 so one level fits a group.
  RmatPrefixTables(int n, int levels, const LevelEntry& entry);

  struct Group {
    VertexId radix;  ///< n^(levels in the group): the digit multiplier
    rng::PackedAliasTable table;
    std::vector<std::uint8_t> u_digits;  ///< outcome -> source digits
    std::vector<std::uint8_t> v_digits;  ///< outcome -> destination digits
  };
  std::vector<Group> groups_;
};

/// Statistics common to the WES baselines.
struct WesStats {
  std::uint64_t num_edges = 0;       ///< unique edges delivered
  std::uint64_t num_generated = 0;   ///< raw trials (>= num_edges)
  std::uint64_t peak_bytes = 0;      ///< peak dedup / sort memory
  std::uint64_t spilled_bytes = 0;   ///< disk traffic (disk variants only)
};

struct RmatOptions {
  model::SeedMatrix seed = model::SeedMatrix::Graph500();
  int scale = 20;
  std::uint64_t num_edges = 0;  ///< 0 -> 16 * |V|
  double noise = 0.0;           ///< NSKG noise N
  std::uint64_t rng_seed = 42;
  /// Per-machine memory cap (nullptr = unlimited). RMAT-mem registers its
  /// O(|E|) dedup set here, which is what reproduces the paper's O.O.M rows.
  MemoryBudget* budget = nullptr;

  std::uint64_t NumVertices() const { return std::uint64_t{1} << scale; }
  std::uint64_t NumEdges() const {
    return num_edges != 0 ? num_edges : std::uint64_t{16} << scale;
  }
};

/// RMAT-mem (Section 7.3): the default WES generator. Keeps every generated
/// edge in an in-memory hash set to reject repeats until |E| unique edges
/// exist — O(|E|) space, O(|E| log |V|) time. Requires 2 * scale <= 48 so an
/// edge packs into one dedup key.
WesStats RmatMem(const RmatOptions& options, const EdgeConsumer& consume);

/// The WES rejection loop of RMAT-mem and FastKronecker: draws edges from
/// `tables` until `target` distinct ones exist and delivers each new one.
/// The O(|E|) dedup set, keyed src * |V| + dst, is charged to `budget`
/// under `tag` and regrown there as it grows.
WesStats SampleUniqueEdges(const RmatPrefixTables& tables, rng::Rng* rng,
                           VertexId num_vertices, std::uint64_t target,
                           MemoryBudget* budget, const char* tag,
                           const EdgeConsumer& consume);

/// RMAT-disk (Section 7.3): generates |E| * (1 + epsilon) raw edges without
/// in-memory dedup, spilling sorted runs, then external-sort merges with
/// duplicate elimination. O(buffer) memory, disk-bound.
struct RmatDiskOptions : RmatOptions {
  std::string temp_dir = ".";
  std::size_t sort_buffer_items = 1 << 20;
  double epsilon = 0.01;  ///< oversampling factor of Algorithm 3
};
WesStats RmatDisk(const RmatDiskOptions& options, const EdgeConsumer& consume);

}  // namespace tg::baseline

#endif  // TRILLIONG_BASELINE_RMAT_H_
