#include "query/csr_graph.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "format/csr6_mapped.h"

namespace tg::query {

CsrGraph CsrGraph::FromEdges(VertexId num_vertices,
                             const std::vector<Edge>& edges) {
  CsrGraph graph;
  graph.offsets_.assign(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    TG_CHECK(e.src < num_vertices && e.dst < num_vertices);
    ++graph.offsets_[e.src + 1];
  }
  for (std::size_t i = 1; i < graph.offsets_.size(); ++i) {
    graph.offsets_[i] += graph.offsets_[i - 1];
  }
  graph.edges_.resize(edges.size());
  std::vector<std::uint64_t> cursor(graph.offsets_.begin(),
                                    graph.offsets_.end() - 1);
  for (const Edge& e : edges) graph.edges_[cursor[e.src]++] = e.dst;
  return graph;
}

Status CsrGraph::FromCsr6Shards(const std::vector<std::string>& paths,
                                CsrGraph* graph) {
  // Zero-copy load: each shard is mmap'd (format/csr6_mapped.h) and its
  // 6-byte neighbors widened straight into the final edge array — no
  // intermediate per-shard vectors.
  std::vector<std::unique_ptr<format::Csr6MappedReader>> shards;
  for (const std::string& path : paths) {
    auto shard = std::make_unique<format::Csr6MappedReader>(path);
    if (!shard->status().ok()) return shard->status();
    shards.push_back(std::move(shard));
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a->lo() < b->lo(); });
  VertexId expected_lo = 0;
  std::uint64_t total_edges = 0;
  for (const auto& shard : shards) {
    if (shard->lo() != expected_lo) {
      return Status::InvalidArgument("CSR6 shards do not tile the range");
    }
    expected_lo = shard->hi();
    total_edges += shard->num_edges();
  }
  const VertexId num_vertices = expected_lo;

  graph->offsets_.assign(num_vertices + 1, 0);
  graph->edges_.resize(total_edges);
  std::uint64_t base = 0;
  for (const auto& shard : shards) {
    for (VertexId u = shard->lo(); u < shard->hi(); ++u) {
      graph->offsets_[u + 1] = base + shard->EdgeOffset(u + 1);
    }
    shard->CopyAllNeighbors(graph->edges_.data() + base);
    base += shard->num_edges();
  }
  return Status::Ok();
}

CsrGraph CsrGraph::Transposed() const {
  CsrGraph t;
  const VertexId n = num_vertices();
  t.offsets_.assign(n + 1, 0);
  for (VertexId v : edges_) ++t.offsets_[v + 1];
  for (std::size_t i = 1; i < t.offsets_.size(); ++i) {
    t.offsets_[i] += t.offsets_[i - 1];
  }
  t.edges_.resize(edges_.size());
  std::vector<std::uint64_t> cursor(t.offsets_.begin(), t.offsets_.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : OutNeighbors(u)) t.edges_[cursor[v]++] = u;
  }
  return t;
}

}  // namespace tg::query
