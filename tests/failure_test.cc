// Failure-injection and error-path coverage: corrupt files, unwritable
// targets, invalid configurations. Production libraries are judged by how
// they fail, not just how they succeed.

#include <gtest/gtest.h>

#include <vector>

#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/convert.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "gmark/graph_config.h"
#include "storage/file_io.h"
#include "storage/temp_dir.h"

namespace tg {
namespace {

TEST(FailureTest, WritersReportUnwritablePaths) {
  format::TsvWriter tsv("/nonexistent_dir_xyz/out.tsv");
  tsv.WriteEdge(1, 2);
  tsv.Finish();
  EXPECT_FALSE(tsv.status().ok());

  format::Adj6Writer adj6("/nonexistent_dir_xyz/out.adj6");
  VertexId v = 1;
  adj6.ConsumeScope(0, &v, 1);
  adj6.Finish();
  EXPECT_FALSE(adj6.status().ok());

  format::Csr6Writer csr6("/nonexistent_dir_xyz/out.csr6", 0, 8);
  csr6.Finish();
  EXPECT_FALSE(csr6.status().ok());
}

TEST(FailureTest, TruncatedCsr6OffsetsRejected) {
  storage::TempDir dir;
  std::string path = dir.File("trunc.csr6");
  {
    storage::FileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.Append("TGCSR6\0\0", 8);
    w.Append64(1);   // version
    w.Append64(0);   // lo
    w.Append64(16);  // hi
    w.Append64(0);   // num_edges — but offsets are missing entirely
    ASSERT_TRUE(w.Close().ok());
  }
  const Status s = format::MergeCsr6Shards({path}, dir.File("out.csr6"));
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("size mismatch"), std::string::npos)
      << s.ToString();
}

TEST(FailureTest, Csr6OffsetEdgeCountMismatchRejected) {
  storage::TempDir dir;
  std::string path = dir.File("mismatch.csr6");
  {
    storage::FileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.Append("TGCSR6\0\0", 8);
    w.Append64(1);  // version
    w.Append64(0);  // lo
    w.Append64(1);  // hi (one vertex, two offsets)
    w.Append64(5);  // claims 5 edges
    w.Append64(0);  // offsets[0]
    w.Append64(2);  // offsets[1] == 2 != 5
    for (int i = 0; i < 5; ++i) w.Append48(0);  // the file size still adds up
    ASSERT_TRUE(w.Close().ok());
  }
  const Status s = format::MergeCsr6Shards({path}, dir.File("out.csr6"));
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("offsets/edge-count mismatch"), std::string::npos)
      << s.ToString();
}

TEST(FailureTest, Csr6BadVertexRangeRejected) {
  storage::TempDir dir;
  auto write_header = [&](const std::string& name, std::uint64_t lo,
                          std::uint64_t hi) {
    const std::string path = dir.File(name);
    storage::FileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    w.Append("TGCSR6\0\0", 8);
    w.Append64(1);  // version
    w.Append64(lo);
    w.Append64(hi);
    w.Append64(0);  // num_edges
    EXPECT_TRUE(w.Close().ok());
    return path;
  };
  // hi < lo: the offset table would span ~2^64 entries.
  Status s = format::MergeCsr6Shards({write_header("inverted.csr6", 16, 0)},
                                     dir.File("out.csr6"));
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("inverted"), std::string::npos) << s.ToString();
  // 2^61 vertices: (hi - lo + 1) * 8 wraps to 0, which must not pass for a
  // header-only file.
  s = format::MergeCsr6Shards(
      {write_header("huge.csr6", 0, (std::uint64_t{1} << 61) - 1)},
      dir.File("out.csr6"));
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
}

// The 48-bit range check lives at the format-writer scope level (one check
// per adjacency, not one per Append48 in the hot loop) and is always on —
// both the ADJ6 and the CSR6 writer must die on an oversized id.
TEST(FailureTest, Adj6ScopeRejectsOversizedIds) {
  storage::TempDir dir;
  const std::string path = dir.File("x.adj6");
  const VertexId adj[1] = {VertexId{1} << 48};
  EXPECT_DEATH(
      {
        format::Adj6Writer w(path);
        w.ConsumeScope(0, adj, 1);
      },
      "does not fit in 6 bytes");
}

TEST(FailureTest, Csr6ScopeRejectsOversizedIds) {
  storage::TempDir dir;
  const std::string path = dir.File("x.csr6");
  const VertexId adj[1] = {VertexId{1} << 48};
  EXPECT_DEATH(
      {
        format::Csr6Writer w(path, 0, 4);
        w.ConsumeScope(0, adj, 1);
      },
      "does not fit in 6 bytes");
}

TEST(FailureTest, ConvertReportsMissingInput) {
  storage::TempDir dir;
  EXPECT_FALSE(
      format::TsvToAdj6("/no/such/file.tsv", dir.File("o.adj6")).ok());
  EXPECT_FALSE(
      format::Adj6ToTsv("/no/such/file.adj6", dir.File("o.tsv")).ok());
  EXPECT_FALSE(format::MergeCsr6Shards({"/no/such/shard.csr6"},
                                       dir.File("o.csr6"))
                   .ok());
}

TEST(FailureTest, GenerateToSinkRequiresSingleWorker) {
  core::TrillionGConfig config;
  config.num_workers = 2;
  core::CountingSink sink;
  EXPECT_DEATH(core::GenerateToSink(config, &sink), "num_workers == 1");
}

TEST(FailureTest, OomDuringMultiWorkerGenerationStopsCleanly) {
  // The OOM must propagate out of worker threads as an exception, not crash.
  core::TrillionGConfig config;
  config.scale = 12;
  config.edge_factor = 16;
  config.num_workers = 3;
  MemoryBudget tiny(64);
  config.budget = &tiny;
  EXPECT_THROW(core::Generate(config,
                              [](int, VertexId, VertexId) {
                                return std::make_unique<core::CountingSink>();
                              }),
               OomError);
}

TEST(FailureTest, GmarkValidateCatchesEveryReferenceError) {
  gmark::GraphConfig config = gmark::GraphConfig::Bibliography(1000, 5000);
  config.schema[0].source_type = "nonexistent";
  EXPECT_FALSE(config.Validate().ok());

  config = gmark::GraphConfig::Bibliography(1000, 5000);
  config.schema[0].predicate = "nonexistent";
  EXPECT_FALSE(config.Validate().ok());

  config = gmark::GraphConfig::Bibliography(1000, 5000);
  config.total_nodes = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = gmark::GraphConfig::Bibliography(1000, 5000);
  config.node_types[0].ratio = 0.9;  // ratios no longer sum to 1
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace tg
