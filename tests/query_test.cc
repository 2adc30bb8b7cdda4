#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/graph_stats.h"
#include "core/trilliong.h"
#include "format/csr6.h"
#include "query/bfs.h"
#include "query/components.h"
#include "query/csr_graph.h"
#include "storage/temp_dir.h"

namespace tg::query {
namespace {

std::vector<Edge> Chain(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back(Edge{v, v + 1});
  return edges;
}

TEST(CsrGraphTest, FromEdgesBasics) {
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {2, 0}, {3, 3}};
  CsrGraph g = CsrGraph::FromEdges(4, edges);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_EQ(g.OutDegree(2), 1u);
  EXPECT_EQ(g.OutDegree(3), 1u);
  auto n0 = g.OutNeighbors(0);
  EXPECT_EQ(std::set<VertexId>(n0.begin(), n0.end()),
            (std::set<VertexId>{1, 2}));
}

TEST(CsrGraphTest, TransposeReversesEdges) {
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {2, 1}};
  CsrGraph g = CsrGraph::FromEdges(3, edges);
  CsrGraph t = g.Transposed();
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.OutDegree(1), 2u);  // in-degree of 1 was 2
  EXPECT_EQ(t.OutDegree(0), 0u);
  // Double transpose restores degrees.
  CsrGraph tt = t.Transposed();
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(tt.OutDegree(v), g.OutDegree(v));
  }
}

TEST(CsrGraphTest, FromCsr6ShardsTilesRange) {
  storage::TempDir dir;
  {
    format::Csr6Writer w0(dir.File("a.csr6"), 0, 4);
    std::vector<VertexId> adj = {5, 1};
    w0.ConsumeScope(2, adj.data(), adj.size());
    w0.Finish();
    format::Csr6Writer w1(dir.File("b.csr6"), 4, 8);
    std::vector<VertexId> adj2 = {0};
    w1.ConsumeScope(6, adj2.data(), adj2.size());
    w1.Finish();
  }
  CsrGraph g;
  // Out-of-order shard list is fine.
  ASSERT_TRUE(CsrGraph::FromCsr6Shards({dir.File("b.csr6"), dir.File("a.csr6")},
                                       &g)
                  .ok());
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutDegree(2), 2u);
  EXPECT_EQ(g.OutDegree(6), 1u);
  EXPECT_EQ(g.OutNeighbors(6)[0], 0u);
}

TEST(CsrGraphTest, FromCsr6ShardsRejectsGaps) {
  storage::TempDir dir;
  {
    format::Csr6Writer w0(dir.File("a.csr6"), 0, 4);
    w0.Finish();
    format::Csr6Writer w1(dir.File("b.csr6"), 6, 8);  // gap [4, 6)
    w1.Finish();
  }
  CsrGraph g;
  EXPECT_FALSE(
      CsrGraph::FromCsr6Shards({dir.File("a.csr6"), dir.File("b.csr6")}, &g)
          .ok());
}

TEST(CsrGraphTest, FromCsr6ShardsRejectsNeighborBeyondRange) {
  // The shard tiles [0, 4) but names neighbor 9; Bfs (parent[v]) and
  // Transposed (offsets_[v + 1]) would index out of bounds with it.
  storage::TempDir dir;
  {
    format::Csr6Writer w0(dir.File("a.csr6"), 0, 4);
    std::vector<VertexId> adj = {1, 9};
    w0.ConsumeScope(2, adj.data(), adj.size());
    w0.Finish();
  }
  CsrGraph g;
  const Status status = CsrGraph::FromCsr6Shards({dir.File("a.csr6")}, &g);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
}

TEST(BfsTest, ChainGraphDepths) {
  CsrGraph g = CsrGraph::FromEdges(10, Chain(10));
  BfsResult r = Bfs(g, 0);
  EXPECT_EQ(r.vertices_visited, 10u);
  EXPECT_EQ(r.max_depth, 9);
  EXPECT_EQ(r.parent[0], 0u);
  for (VertexId v = 1; v < 10; ++v) EXPECT_EQ(r.parent[v], v - 1);
  EXPECT_TRUE(ValidateBfsTree(g, 0, r).ok());
}

TEST(BfsTest, DirectedReachabilityOnly) {
  // Chain edges point forward; starting mid-chain reaches only the suffix
  // unless the reverse graph is supplied.
  CsrGraph g = CsrGraph::FromEdges(10, Chain(10));
  BfsResult forward_only = Bfs(g, 5);
  EXPECT_EQ(forward_only.vertices_visited, 5u);  // 5..9
  CsrGraph rev = g.Transposed();
  BfsResult undirected = Bfs(g, 5, &rev);
  EXPECT_EQ(undirected.vertices_visited, 10u);
  EXPECT_TRUE(ValidateBfsTree(g, 5, undirected, &rev).ok());
}

TEST(BfsTest, DisconnectedComponentUnreached) {
  std::vector<Edge> edges = {{0, 1}, {2, 3}};
  CsrGraph g = CsrGraph::FromEdges(4, edges);
  BfsResult r = Bfs(g, 0);
  EXPECT_EQ(r.vertices_visited, 2u);
  EXPECT_EQ(r.parent[2], BfsResult::kUnreached);
  EXPECT_EQ(r.parent[3], BfsResult::kUnreached);
  EXPECT_TRUE(ValidateBfsTree(g, 0, r).ok());
}

TEST(BfsTest, ValidationCatchesCorruptTrees) {
  CsrGraph g = CsrGraph::FromEdges(10, Chain(10));
  BfsResult r = Bfs(g, 0);
  // Corrupt: parent edge that does not exist.
  BfsResult bad = r;
  bad.parent[7] = 3;
  EXPECT_FALSE(ValidateBfsTree(g, 0, bad).ok());
  // Corrupt: cycle.
  BfsResult cyclic = r;
  cyclic.parent[1] = 2;
  cyclic.parent[2] = 1;
  EXPECT_FALSE(ValidateBfsTree(g, 0, cyclic).ok());
  // Corrupt: root not its own parent.
  BfsResult rootless = r;
  rootless.parent[0] = 1;
  EXPECT_FALSE(ValidateBfsTree(g, 0, rootless).ok());
}

TEST(BfsTest, OnGeneratedGraphVisitsGiantComponent) {
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 16;
  std::vector<Edge> edges;
  class Collect : public core::ScopeSink {
   public:
    explicit Collect(std::vector<Edge>* out) : out_(out) {}
    void ConsumeScope(VertexId u, const VertexId* adj,
                      std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) out_->push_back(Edge{u, adj[i]});
    }
    std::vector<Edge>* out_;
  };
  Collect sink(&edges);
  core::GenerateToSink(config, &sink);

  CsrGraph g = CsrGraph::FromEdges(config.NumVertices(), edges);
  CsrGraph rev = g.Transposed();
  BfsResult r = Bfs(g, 0, &rev);
  // Edge factor 16: the giant weakly-connected component holds nearly every
  // non-isolated vertex; vertex 0 is the hub.
  EXPECT_GT(r.vertices_visited, config.NumVertices() / 2);
  EXPECT_TRUE(ValidateBfsTree(g, 0, r, &rev).ok());
  EXPECT_GT(r.edges_traversed, config.NumEdges());
}

TEST(DisjointSetsTest, BasicUnions) {
  DisjointSets ds(6);
  EXPECT_EQ(ds.NumComponents(), 6u);
  EXPECT_TRUE(ds.Union(0, 1));
  EXPECT_TRUE(ds.Union(1, 2));
  EXPECT_FALSE(ds.Union(0, 2));  // already joined
  EXPECT_EQ(ds.NumComponents(), 4u);
  EXPECT_EQ(ds.ComponentSize(2), 3u);
  EXPECT_EQ(ds.LargestComponent(), 3u);
  EXPECT_EQ(ds.Find(0), ds.Find(2));
  EXPECT_NE(ds.Find(0), ds.Find(3));
}

TEST(DisjointSetsTest, AgreesWithBfsOnGeneratedGraph) {
  core::TrillionGConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  std::vector<Edge> edges;
  class Collect : public core::ScopeSink {
   public:
    explicit Collect(std::vector<Edge>* out) : out_(out) {}
    void ConsumeScope(VertexId u, const VertexId* adj,
                      std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) out_->push_back(Edge{u, adj[i]});
    }
    std::vector<Edge>* out_;
  };
  Collect sink(&edges);
  core::GenerateToSink(config, &sink);

  DisjointSets ds(config.NumVertices());
  for (const Edge& e : edges) ds.Union(e.src, e.dst);

  CsrGraph g = CsrGraph::FromEdges(config.NumVertices(), edges);
  CsrGraph rev = g.Transposed();
  BfsResult r = Bfs(g, 0, &rev);
  EXPECT_EQ(r.vertices_visited, ds.ComponentSize(0));
}

TEST(GraphStatsTest, HandComputedValues) {
  // 0->1, 1->0 (reciprocal pair), 0->2, 3->3 (self loop), 4 isolated.
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 2}, {3, 3}};
  CsrGraph g = CsrGraph::FromEdges(5, edges);
  analysis::GraphStatsOptions options;
  options.clustering_samples = 0;
  analysis::GraphStats s = analysis::ComputeGraphStats(g, options);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.self_loops, 1u);
  EXPECT_NEAR(s.reciprocity, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.isolated_fraction, 2.0 / 5.0, 1e-12);  // vertices 2 and 4
  EXPECT_EQ(s.max_out_degree, 2u);
}

TEST(GraphStatsTest, CliqueHasFullClusteringAndReciprocity) {
  std::vector<Edge> edges;
  const VertexId n = 12;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) edges.push_back(Edge{u, v});
    }
  }
  CsrGraph g = CsrGraph::FromEdges(n, edges);
  analysis::GraphStats s = analysis::ComputeGraphStats(g);
  EXPECT_NEAR(s.reciprocity, 1.0, 1e-12);
  EXPECT_NEAR(s.clustering_coefficient, 1.0, 1e-12);
  EXPECT_EQ(s.self_loops, 0u);
}

}  // namespace
}  // namespace tg::query
