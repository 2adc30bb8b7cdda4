// query/csr_graph.h — in-memory compressed-sparse-row graph, built from an
// edge list or loaded from CSR6 shards. The common input of the query
// kernels (BFS, components) and the analysis passes.
#ifndef TRILLIONG_QUERY_CSR_GRAPH_H_
#define TRILLIONG_QUERY_CSR_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace tg::query {

/// In-memory CSR graph over the whole vertex range [0, num_vertices).
/// The consumption side of the generator: Graph500 measures "generate, then
/// run a simple query" (Appendix D), and the paper motivates generation by
/// graph-processing evaluation — this module closes that loop.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an unsorted edge list (counting sort by source).
  static CsrGraph FromEdges(VertexId num_vertices,
                            const std::vector<Edge>& edges);

  /// Loads and concatenates CSR6 shard files (as produced by per-worker
  /// Csr6Writer sinks). Shards may arrive in any order but must tile
  /// [0, num_vertices) exactly; a neighbor id outside that range is
  /// Corruption.
  static Status FromCsr6Shards(const std::vector<std::string>& paths,
                               CsrGraph* graph);

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return edges_.size(); }

  std::uint64_t OutDegree(VertexId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  std::span<const VertexId> OutNeighbors(VertexId u) const {
    return std::span<const VertexId>(edges_.data() + offsets_[u],
                                     OutDegree(u));
  }

  /// Transposed copy (in-edges become out-edges) — needed for BFS on
  /// directed graphs treated as undirected, Graph500-style.
  CsrGraph Transposed() const;

  std::uint64_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           edges_.size() * sizeof(VertexId);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // num_vertices + 1
  std::vector<VertexId> edges_;
};

}  // namespace tg::query

#endif  // TRILLIONG_QUERY_CSR_GRAPH_H_
