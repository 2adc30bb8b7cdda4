#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "storage/temp_dir.h"

namespace tg::format {
namespace {

std::vector<VertexId> V(std::initializer_list<VertexId> ids) { return ids; }

TEST(TsvTest, RoundTripScopes) {
  storage::TempDir dir;
  std::string path = dir.File("edges.tsv");
  {
    TsvWriter writer(path);
    std::vector<VertexId> adj1 = V({5, 3, 9});
    std::vector<VertexId> adj2 = V({0});
    writer.ConsumeScope(1, adj1.data(), adj1.size());
    writer.ConsumeScope(7, adj2.data(), adj2.size());
    writer.Finish();
    EXPECT_TRUE(writer.status().ok());
  }
  std::vector<Edge> edges = TsvReader::ReadAll(path);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], (Edge{1, 5}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
  EXPECT_EQ(edges[2], (Edge{1, 9}));
  EXPECT_EQ(edges[3], (Edge{7, 0}));
}

TEST(TsvTest, TransposedSwapsColumns) {
  storage::TempDir dir;
  std::string path = dir.File("t.tsv");
  {
    TsvWriter writer(path, /*transposed=*/true);
    std::vector<VertexId> adj = V({5, 3});
    writer.ConsumeScope(1, adj.data(), adj.size());
    writer.Finish();
  }
  std::vector<Edge> edges = TsvReader::ReadAll(path);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{5, 1}));
  EXPECT_EQ(edges[1], (Edge{3, 1}));
}

TEST(TsvTest, LargeIdsSurviveTextRoundTrip) {
  storage::TempDir dir;
  std::string path = dir.File("big.tsv");
  VertexId big = (VertexId{1} << 47) + 12345;
  {
    TsvWriter writer(path);
    writer.WriteEdge(big, big + 1);
    writer.Finish();
  }
  std::vector<Edge> edges = TsvReader::ReadAll(path);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].src, big);
  EXPECT_EQ(edges[0].dst, big + 1);
}

TEST(TsvTest, DigitsMatchToCharsAtEveryWidth) {
  // Every decimal width and both sides of each power of ten, through the
  // scope path (the scope's vertex formatted once and copied into every
  // line), in both column orders. io_test covers WriteEdge up to 2^64 - 1.
  std::vector<VertexId> ids = {0};
  for (VertexId p = 10; p < (VertexId{1} << 48); p *= 10) {
    ids.push_back(p - 1);
    ids.push_back(p);
  }
  ids.push_back((VertexId{1} << 48) - 1);
  auto decimal = [](VertexId v) {
    char buf[24];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  for (bool transposed : {false, true}) {
    storage::TempDir dir;
    const std::string path = dir.File("digits.tsv");
    std::string expected;
    {
      TsvWriter writer(path, transposed);
      for (VertexId u : ids) {
        writer.ConsumeScope(u, ids.data(), ids.size());
        for (VertexId v : ids) {
          expected += transposed ? decimal(v) + "\t" + decimal(u)
                                 : decimal(u) + "\t" + decimal(v);
          expected += "\n";
        }
      }
      ASSERT_TRUE(writer.Finish().ok());
    }
    std::ifstream in(path, std::ios::binary);
    const std::string actual((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(actual, expected) << "transposed=" << transposed;
  }
}

TEST(TsvTest, MissingFileReportsError) {
  TsvReader reader("/nonexistent/path/file.tsv");
  Edge e;
  EXPECT_FALSE(reader.Next(&e));
  EXPECT_FALSE(reader.status().ok());
}

TEST(Adj6Test, RoundTripRecords) {
  storage::TempDir dir;
  std::string path = dir.File("g.adj6");
  {
    Adj6Writer writer(path);
    std::vector<VertexId> adj1 = V({2, 4, 8});
    std::vector<VertexId> adj2 = V({1});
    writer.ConsumeScope(0, adj1.data(), adj1.size());
    writer.ConsumeScope(3, adj2.data(), adj2.size());
    writer.ConsumeScope(5, nullptr, 0);  // zero-degree scopes are omitted
    writer.Finish();
    EXPECT_TRUE(writer.status().ok());
  }
  std::map<VertexId, std::vector<VertexId>> got;
  ASSERT_TRUE(Adj6Reader::ForEach(path, [&](VertexId u,
                                            const std::vector<VertexId>& adj) {
                got[u] = adj;
              }).ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], V({2, 4, 8}));
  EXPECT_EQ(got[3], V({1}));
}

TEST(Adj6Test, SixByteBoundaryIds) {
  storage::TempDir dir;
  std::string path = dir.File("b.adj6");
  VertexId max48 = (VertexId{1} << 48) - 1;
  {
    Adj6Writer writer(path);
    std::vector<VertexId> adj = V({max48, 0});
    writer.ConsumeScope(max48 - 1, adj.data(), adj.size());
    writer.Finish();
  }
  Adj6Reader reader(path);
  VertexId u;
  std::vector<VertexId> adj;
  ASSERT_TRUE(reader.Next(&u, &adj));
  EXPECT_EQ(u, max48 - 1);
  EXPECT_EQ(adj, V({max48, 0}));
  EXPECT_FALSE(reader.Next(&u, &adj));
}

TEST(Adj6Test, FileIsCompact) {
  // Record = 6 (vertex) + 6 (degree) + 6 * degree bytes.
  storage::TempDir dir;
  std::string path = dir.File("c.adj6");
  {
    Adj6Writer writer(path);
    std::vector<VertexId> adj(100, 7);
    for (int i = 0; i < 50; ++i) {
      writer.ConsumeScope(i, adj.data(), adj.size());
    }
    writer.Finish();
    EXPECT_EQ(writer.bytes_written(), 50u * (6 + 6 + 100 * 6));
  }
}

// Writes a well-formed record for vertex 1 (neighbors 2, 3), then `tail`
// ADJ6 values, then `extra` raw bytes: a file cut or corrupted after one
// good record.
std::string Adj6WithTail(const storage::TempDir& dir,
                         std::initializer_list<VertexId> tail,
                         std::size_t extra = 0) {
  const std::string path = dir.File("bad.adj6");
  storage::FileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  for (VertexId v : {1, 2, 2, 3}) w.Append48(v);
  for (VertexId v : tail) w.Append48(v);
  w.Append("\x07\x07\x07\x07\x07", extra);
  EXPECT_TRUE(w.Close().ok());
  return path;
}

// The reader must reject the second record with Status::Corruption after
// delivering the first, and ForEach must return that status.
void ExpectCorruptSecondRecord(const std::string& path,
                               const std::string& what) {
  Adj6Reader reader(path);
  VertexId u;
  std::vector<VertexId> adj;
  ASSERT_TRUE(reader.Next(&u, &adj));
  EXPECT_EQ(u, 1u);
  EXPECT_EQ(adj, V({2, 3}));
  EXPECT_FALSE(reader.Next(&u, &adj));
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
  EXPECT_NE(reader.status().message().find(what), std::string::npos)
      << reader.status().ToString();
  EXPECT_FALSE(reader.Next(&u, &adj));  // the error stays latched

  int records = 0;
  Status s = Adj6Reader::ForEach(
      path, [&](VertexId, const std::vector<VertexId>&) { ++records; });
  EXPECT_EQ(records, 1);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
}

TEST(Adj6Test, TruncatedHeaderIsCorruption) {
  // Vertex id, then the degree cut after 3 of its 6 bytes.
  storage::TempDir dir;
  ExpectCorruptSecondRecord(Adj6WithTail(dir, {5}, 3),
                            "truncated ADJ6 record header at byte 24");
}

TEST(Adj6Test, TruncatedAdjacencyIsCorruption) {
  // Claims 3 neighbors, provides one and half of the next.
  storage::TempDir dir;
  ExpectCorruptSecondRecord(Adj6WithTail(dir, {5, 3, 7}, 3),
                            "claims degree 3 but 9 bytes remain");
}

TEST(Adj6Test, DegreeBeyondFileIsCorruption) {
  // A degree of 2^40 would need 6 TiB of neighbors; the reader must not
  // allocate for it.
  storage::TempDir dir;
  ExpectCorruptSecondRecord(Adj6WithTail(dir, {5, VertexId{1} << 40, 7}),
                            "claims degree 1099511627776 but 6 bytes remain");
}

TEST(Csr6Test, RoundTripWholeGraph) {
  storage::TempDir dir;
  std::string path = dir.File("g.csr6");
  {
    Csr6Writer writer(path, 0, 8);
    std::vector<VertexId> adj0 = V({7, 2, 5});
    std::vector<VertexId> adj3 = V({0});
    std::vector<VertexId> adj7 = V({6, 1});
    writer.ConsumeScope(0, adj0.data(), adj0.size());
    writer.ConsumeScope(3, adj3.data(), adj3.size());
    writer.ConsumeScope(7, adj7.data(), adj7.size());
    writer.Finish();
    EXPECT_TRUE(writer.status().ok());
  }
  Csr6MappedReader reader(path);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.lo(), 0u);
  EXPECT_EQ(reader.hi(), 8u);
  EXPECT_EQ(reader.num_edges(), 6u);
  EXPECT_EQ(reader.Degree(0), 3u);
  EXPECT_EQ(reader.Degree(1), 0u);
  EXPECT_EQ(reader.Degree(3), 1u);
  EXPECT_EQ(reader.Degree(7), 2u);
  // Adjacency must come back sorted.
  auto n0 = reader.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()), V({2, 5, 7}));
  auto n7 = reader.Neighbors(7);
  EXPECT_EQ(std::vector<VertexId>(n7.begin(), n7.end()), V({1, 6}));
}

TEST(Csr6Test, ShardWithNonZeroLow) {
  storage::TempDir dir;
  std::string path = dir.File("s.csr6");
  {
    Csr6Writer writer(path, 100, 110);
    std::vector<VertexId> adj = V({42});
    writer.ConsumeScope(105, adj.data(), adj.size());
    writer.Finish();
  }
  Csr6MappedReader reader(path);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.lo(), 100u);
  EXPECT_EQ(reader.hi(), 110u);
  EXPECT_EQ(reader.Degree(105), 1u);
  EXPECT_EQ(reader.Degree(100), 0u);
  EXPECT_EQ(reader.Neighbors(105)[0], 42u);
}

TEST(Csr6Test, RejectsCorruptMagic) {
  storage::TempDir dir;
  std::string path = dir.File("bad.csr6");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("NOTCSR00", 1, 8, f);
  std::fclose(f);
  Csr6MappedReader reader(path);
  EXPECT_FALSE(reader.status().ok());
}

TEST(Csr6DeathTest, OutOfOrderScopesRejected) {
  storage::TempDir dir;
  std::string path = dir.File("o.csr6");
  Csr6Writer writer(path, 0, 8);
  std::vector<VertexId> adj = V({1});
  writer.ConsumeScope(5, adj.data(), adj.size());
  EXPECT_DEATH(writer.ConsumeScope(2, adj.data(), adj.size()),
               "increasing order");
}

TEST(FormatIntegrationTest, GeneratorToAllThreeFormatsAgree) {
  // Generate once into each format and verify they encode the same graph.
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 8;
  config.edge_factor = 8;
  config.rng_seed = 777;

  std::string tsv_path = dir.File("g.tsv");
  std::string adj_path = dir.File("g.adj6");
  std::string csr_path = dir.File("g.csr6");
  {
    TsvWriter sink(tsv_path);
    core::GenerateToSink(config, &sink);
    sink.Finish();
  }
  {
    Adj6Writer sink(adj_path);
    core::GenerateToSink(config, &sink);
    sink.Finish();
  }
  {
    Csr6Writer sink(csr_path, 0, config.NumVertices());
    core::GenerateToSink(config, &sink);
    sink.Finish();
  }

  // Canonicalize all three to sorted edge lists.
  std::vector<Edge> tsv_edges = TsvReader::ReadAll(tsv_path);
  std::sort(tsv_edges.begin(), tsv_edges.end());

  std::vector<Edge> adj_edges;
  ASSERT_TRUE(Adj6Reader::ForEach(adj_path, [&](VertexId u,
                                                const std::vector<VertexId>&
                                                    adj) {
                for (VertexId v : adj) adj_edges.push_back(Edge{u, v});
              }).ok());
  std::sort(adj_edges.begin(), adj_edges.end());

  Csr6MappedReader csr(csr_path);
  ASSERT_TRUE(csr.status().ok());
  std::vector<Edge> csr_edges;
  for (VertexId u = 0; u < config.NumVertices(); ++u) {
    for (VertexId v : csr.Neighbors(u)) csr_edges.push_back(Edge{u, v});
  }
  std::sort(csr_edges.begin(), csr_edges.end());

  EXPECT_EQ(tsv_edges, adj_edges);
  EXPECT_EQ(adj_edges, csr_edges);
  EXPECT_GT(tsv_edges.size(), 1000u);
}

TEST(FormatIntegrationTest, Adj6IsMuchSmallerThanTsvAtLargeIds) {
  // Section 5: ADJ6 files are 3-4x smaller than TSV. The gap comes from
  // large vertex IDs (a scale-38 ID is 12 decimal digits vs 6 bytes), so
  // measure with IDs in that range.
  storage::TempDir dir;
  std::string tsv_path = dir.File("big.tsv");
  std::string adj_path = dir.File("big.adj6");
  const VertexId base = VertexId{1} << 40;
  std::vector<VertexId> adj(64);
  for (std::size_t i = 0; i < adj.size(); ++i) adj[i] = base + i * 12345;
  {
    TsvWriter tsv(tsv_path);
    Adj6Writer adj6(adj_path);
    for (int u = 0; u < 200; ++u) {
      tsv.ConsumeScope(base + u, adj.data(), adj.size());
      adj6.ConsumeScope(base + u, adj.data(), adj.size());
    }
    tsv.Finish();
    adj6.Finish();
  }
  auto file_size = [](const std::string& p) {
    return static_cast<double>(std::filesystem::file_size(p));
  };
  EXPECT_GT(file_size(tsv_path) / file_size(adj_path), 3.0);
}

}  // namespace
}  // namespace tg::format
