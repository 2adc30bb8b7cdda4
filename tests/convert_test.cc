#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/convert.h"
#include "format/csr6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "storage/temp_dir.h"

namespace tg::format {
namespace {

std::vector<Edge> SortedEdgesFromAdj6(const std::string& path) {
  std::vector<Edge> edges;
  Adj6Reader::ForEach(path, [&](VertexId u, const std::vector<VertexId>& adj) {
    for (VertexId v : adj) edges.push_back(Edge{u, v});
  });
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(ConvertTest, TsvToAdj6RoundTrip) {
  storage::TempDir dir;
  std::string tsv = dir.File("g.tsv");
  {
    TsvWriter writer(tsv);
    writer.WriteEdge(3, 1);
    writer.WriteEdge(0, 2);
    writer.WriteEdge(3, 7);
    writer.WriteEdge(0, 5);
    writer.WriteEdge(9, 9);
    writer.Finish();
  }
  std::string adj6 = dir.File("g.adj6");
  ConvertOptions options;
  options.temp_dir = dir.path();
  options.sort_buffer_items = 2;  // force spills
  ASSERT_TRUE(TsvToAdj6(tsv, adj6, options).ok());

  std::vector<Edge> edges = SortedEdgesFromAdj6(adj6);
  std::vector<Edge> expected = {{0, 2}, {0, 5}, {3, 1}, {3, 7}, {9, 9}};
  EXPECT_EQ(edges, expected);
}

TEST(ConvertTest, Adj6ToTsvRoundTrip) {
  storage::TempDir dir;
  std::string adj6 = dir.File("g.adj6");
  {
    Adj6Writer writer(adj6);
    std::vector<VertexId> adj = {4, 2};
    writer.ConsumeScope(1, adj.data(), adj.size());
    writer.Finish();
  }
  std::string tsv = dir.File("g.tsv");
  ASSERT_TRUE(Adj6ToTsv(adj6, tsv).ok());
  std::vector<Edge> edges = TsvReader::ReadAll(tsv);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{1, 4}));
  EXPECT_EQ(edges[1], (Edge{1, 2}));
}

TEST(ConvertTest, MergeCsr6ShardsEqualsGeneratedGraph) {
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  config.num_workers = 3;
  std::vector<std::string> shards;
  std::mutex mu;
  core::Generate(config, [&](int w, VertexId lo, VertexId hi)
                             -> std::unique_ptr<core::ScopeSink> {
    std::lock_guard<std::mutex> lock(mu);
    shards.push_back(dir.File("s" + std::to_string(w) + ".csr6"));
    return std::make_unique<Csr6Writer>(shards.back(), lo, hi);
  });

  std::string merged = dir.File("merged.csr6");
  ASSERT_TRUE(MergeCsr6Shards(shards, merged).ok());

  Csr6MappedReader whole(merged);
  ASSERT_TRUE(whole.status().ok());
  EXPECT_EQ(whole.lo(), 0u);
  EXPECT_EQ(whole.hi(), config.NumVertices());

  std::uint64_t shard_edges = 0;
  for (const std::string& path : shards) {
    Csr6MappedReader shard(path);
    ASSERT_TRUE(shard.status().ok());
    shard_edges += shard.num_edges();
    for (VertexId u = shard.lo(); u < shard.hi(); ++u) {
      auto a = shard.Neighbors(u);
      auto b = whole.Neighbors(u);
      ASSERT_EQ(a.size(), b.size()) << "u=" << u;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
  EXPECT_EQ(whole.num_edges(), shard_edges);
}

TEST(ConvertTest, MergeRejectsNonTilingShards) {
  storage::TempDir dir;
  {
    Csr6Writer w0(dir.File("a.csr6"), 0, 4);
    w0.Finish();
    Csr6Writer w1(dir.File("b.csr6"), 5, 8);
    w1.Finish();
  }
  EXPECT_FALSE(MergeCsr6Shards({dir.File("a.csr6"), dir.File("b.csr6")},
                               dir.File("out.csr6"))
                   .ok());
}

TEST(ConvertTest, Adj6ToCsr6SortsAdjacency) {
  storage::TempDir dir;
  std::string adj6 = dir.File("g.adj6");
  {
    Adj6Writer writer(adj6);
    std::vector<VertexId> adj = {9, 3, 6};
    writer.ConsumeScope(2, adj.data(), adj.size());
    writer.Finish();
  }
  std::string csr6 = dir.File("g.csr6");
  ASSERT_TRUE(Adj6ToCsr6(adj6, csr6, 16).ok());
  Csr6MappedReader reader(csr6);
  ASSERT_TRUE(reader.status().ok());
  auto nbrs = reader.Neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{3, 6, 9}));
}

TEST(ConvertTest, FullPipelineTsvToCsr6ViaAdj6) {
  // Generate TSV, convert twice, and confirm the edge set is preserved.
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 9;
  config.edge_factor = 8;
  std::string tsv = dir.File("g.tsv");
  {
    TsvWriter sink(tsv);
    core::GenerateToSink(config, &sink);
    sink.Finish();
  }
  std::string adj6 = dir.File("g.adj6");
  ConvertOptions options;
  options.temp_dir = dir.path();
  ASSERT_TRUE(TsvToAdj6(tsv, adj6, options).ok());
  std::string csr6 = dir.File("g.csr6");
  ASSERT_TRUE(Adj6ToCsr6(adj6, csr6, config.NumVertices()).ok());

  std::vector<Edge> original = TsvReader::ReadAll(tsv);
  std::sort(original.begin(), original.end());
  Csr6MappedReader reader(csr6);
  ASSERT_TRUE(reader.status().ok());
  std::vector<Edge> converted;
  for (VertexId u = 0; u < config.NumVertices(); ++u) {
    for (VertexId v : reader.Neighbors(u)) converted.push_back(Edge{u, v});
  }
  std::sort(converted.begin(), converted.end());
  EXPECT_EQ(original, converted);
}

}  // namespace
}  // namespace tg::format
