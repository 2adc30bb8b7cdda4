// End-to-end pipelines across modules: generator -> format -> reader ->
// analysis, multi-worker shard merging, and cross-generator distribution
// agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "analysis/degree_dist.h"
#include "baseline/rmat.h"
#include "baseline/wesp.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "storage/temp_dir.h"

namespace tg {
namespace {

TEST(IntegrationTest, GenerateAdj6ReadAnalyze) {
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 14;
  config.edge_factor = 16;
  config.num_workers = 3;

  std::vector<std::string> shards;
  core::GenerateStats stats = core::Generate(
      config,
      [&](int worker, VertexId, VertexId) -> std::unique_ptr<core::ScopeSink> {
        shards.push_back(dir.File("shard" + std::to_string(worker) + ".adj6"));
        return std::make_unique<format::Adj6Writer>(shards.back());
      });

  // Read all shards back; recompute degrees.
  std::vector<std::uint32_t> out_degrees(config.NumVertices(), 0);
  std::vector<std::uint32_t> in_degrees(config.NumVertices(), 0);
  std::uint64_t read_edges = 0;
  std::set<VertexId> seen_scopes;
  for (const std::string& shard : shards) {
    ASSERT_TRUE(format::Adj6Reader::ForEach(
                    shard,
                    [&](VertexId u, const std::vector<VertexId>& adj) {
                      EXPECT_TRUE(seen_scopes.insert(u).second)
                          << "scope duplicated across shards";
                      out_degrees[u] += adj.size();
                      for (VertexId v : adj) ++in_degrees[v];
                      read_edges += adj.size();
                    })
                    .ok());
  }
  EXPECT_EQ(read_edges, stats.num_edges);
  EXPECT_EQ(seen_scopes.size(), stats.num_scopes);

  // Distribution sanity after the full round trip.
  EXPECT_NEAR(analysis::PopcountClassSlope(out_degrees), -1.662, 0.15);
  auto hist = analysis::DegreeHistogram::FromDegrees(out_degrees);
  EXPECT_EQ(hist.NumEdges(), stats.num_edges);
  EXPECT_EQ(hist.MaxDegree(), stats.max_degree);
}

TEST(IntegrationTest, Csr6ShardsCoverExactVertexRanges) {
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 8;
  config.num_workers = 4;

  struct Shard {
    std::string path;
    VertexId lo, hi;
  };
  std::vector<Shard> shards;
  std::mutex mu;
  core::GenerateStats stats = core::Generate(
      config,
      [&](int, VertexId lo, VertexId hi) -> std::unique_ptr<core::ScopeSink> {
        std::lock_guard<std::mutex> lock(mu);
        std::string path =
            dir.File("s" + std::to_string(shards.size()) + ".csr6");
        shards.push_back({path, lo, hi});
        return std::make_unique<format::Csr6Writer>(path, lo, hi);
      });

  std::sort(shards.begin(), shards.end(),
            [](const Shard& a, const Shard& b) { return a.lo < b.lo; });
  EXPECT_EQ(shards.front().lo, 0u);
  EXPECT_EQ(shards.back().hi, config.NumVertices());
  std::uint64_t total_edges = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(shards[i].lo, shards[i - 1].hi);
    }
    format::Csr6MappedReader reader(shards[i].path);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.lo(), shards[i].lo);
    EXPECT_EQ(reader.hi(), shards[i].hi);
    total_edges += reader.num_edges();
    for (VertexId u = reader.lo(); u < reader.hi(); ++u) {
      auto nbrs = reader.Neighbors(u);
      EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    }
  }
  EXPECT_EQ(total_edges, stats.num_edges);
}

TEST(IntegrationTest, TrillionGMatchesRmatDistribution) {
  // The headline correctness claim (Figure 8): TrillionG's AVS generation
  // draws from the same distribution as edge-at-a-time RMAT. Compare
  // in-degree histograms via KS distance.
  const int scale = 14;
  core::TrillionGConfig config;
  config.scale = scale;
  config.edge_factor = 16;
  analysis::DegreeSink tg_sink(config.NumVertices());
  core::GenerateToSink(config, &tg_sink);

  std::vector<std::uint32_t> rmat_in(VertexId{1} << scale, 0);
  std::vector<std::uint32_t> rmat_out(VertexId{1} << scale, 0);
  baseline::RmatOptions rmat;
  rmat.scale = scale;
  baseline::RmatMem(rmat, [&](const Edge& e) {
    ++rmat_out[e.src];
    ++rmat_in[e.dst];
  });

  double ks_in = analysis::DegreeHistogram::KsDistance(
      tg_sink.InHistogram(),
      analysis::DegreeHistogram::FromDegrees(rmat_in));
  double ks_out = analysis::DegreeHistogram::KsDistance(
      tg_sink.OutHistogram(),
      analysis::DegreeHistogram::FromDegrees(rmat_out));
  EXPECT_LT(ks_in, 0.05);
  EXPECT_LT(ks_out, 0.05);
}

TEST(IntegrationTest, WespShardsFormAGlobalGraph) {
  storage::TempDir dir;
  cluster::SimCluster cluster({2, 2, 0, {}});
  baseline::WespOptions options;
  options.scale = 12;
  options.num_edges = 1 << 14;

  std::vector<std::string> paths;
  std::vector<std::shared_ptr<format::TsvWriter>> writers;
  for (int w = 0; w < cluster.num_workers(); ++w) {
    paths.push_back(dir.File("w" + std::to_string(w) + ".tsv"));
    writers.push_back(std::make_shared<format::TsvWriter>(paths.back()));
  }
  baseline::WespStats stats =
      baseline::RunWesp(&cluster, options, [&](int w) {
        auto writer = writers[w];
        return [writer](const Edge& e) { writer->WriteEdge(e.src, e.dst); };
      });
  for (auto& w : writers) w->Finish();

  std::vector<Edge> all;
  for (const std::string& path : paths) {
    std::vector<Edge> part = format::TsvReader::ReadAll(path);
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_EQ(all.size(), stats.num_edges);
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

TEST(IntegrationTest, TsvAndAdj6EncodeTheSameGraphAcrossWorkers) {
  storage::TempDir dir;
  core::TrillionGConfig config;
  config.scale = 11;
  config.edge_factor = 8;
  config.num_workers = 2;

  auto collect = [&](bool adj6) {
    std::vector<std::string> files;
    core::Generate(config, [&](int worker, VertexId lo, VertexId hi)
                               -> std::unique_ptr<core::ScopeSink> {
      std::string path = dir.File((adj6 ? "a" : "t") + std::to_string(worker));
      files.push_back(path);
      if (adj6) return std::make_unique<format::Adj6Writer>(path);
      (void)lo;
      (void)hi;
      return std::make_unique<format::TsvWriter>(path);
    });
    std::vector<Edge> edges;
    for (const std::string& f : files) {
      if (adj6) {
        format::Adj6Reader::ForEach(
            f, [&](VertexId u, const std::vector<VertexId>& adj) {
              for (VertexId v : adj) edges.push_back(Edge{u, v});
            });
      } else {
        std::vector<Edge> part = format::TsvReader::ReadAll(f);
        edges.insert(edges.end(), part.begin(), part.end());
      }
    }
    std::sort(edges.begin(), edges.end());
    return edges;
  };

  EXPECT_EQ(collect(false), collect(true));
}

}  // namespace
}  // namespace tg
