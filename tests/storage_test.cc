#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "rng/random.h"
#include "storage/external_sorter.h"
#include "storage/file_io.h"
#include "storage/fs.h"
#include "storage/temp_dir.h"
#include "util/common.h"

namespace tg::storage {
namespace {

TEST(TempDirTest, CreatesAndCleansUp) {
  std::string path;
  {
    TempDir dir;
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    FileWriter w;
    ASSERT_TRUE(w.Open(dir.File("x.bin")).ok());
    w.Append("abc", 3);
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FileIoTest, RoundTrip48And64) {
  TempDir dir;
  std::string path = dir.File("io.bin");
  {
    FileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.Append48(0);
    w.Append48((1ULL << 48) - 1);
    w.Append48(123456789012345ULL);
    w.Append64(~0ULL);
    w.Append64(42);
    ASSERT_TRUE(w.Close().ok());
  }
  FileReader r;
  ASSERT_TRUE(r.Open(path).ok());
  std::uint64_t v;
  ASSERT_TRUE(r.Read48(&v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.Read48(&v));
  EXPECT_EQ(v, (1ULL << 48) - 1);
  ASSERT_TRUE(r.Read48(&v));
  EXPECT_EQ(v, 123456789012345ULL);
  ASSERT_TRUE(r.Read64(&v));
  EXPECT_EQ(v, ~0ULL);
  ASSERT_TRUE(r.Read64(&v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(r.Read48(&v));  // clean EOF
}

TEST(FileIoTest, LargeWriteBypassesBuffer) {
  TempDir dir;
  std::string path = dir.File("big.bin");
  std::vector<char> payload(5 << 20, 'x');
  {
    FileWriter w(1 << 16);  // small buffer, payload much bigger
    ASSERT_TRUE(w.Open(path).ok());
    w.Append(payload.data(), payload.size());
    EXPECT_EQ(w.bytes_written(), payload.size());
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path), payload.size());
}

TEST(FileIoTest, OpenFailureIsStatusNotCrash) {
  FileWriter w;
  EXPECT_FALSE(w.Open("/nonexistent_dir_xyz/file.bin").ok());
  FileReader r;
  EXPECT_FALSE(r.Open("/nonexistent_dir_xyz/file.bin").ok());
}

// Host-side files (reports, traces, profiles) are not graph I/O: WriteFile
// creates missing directories, ignores an injected disk fault and leaves
// the io.* transport counters alone.
TEST(FsTest, WriteFileCreatesParentsAndBypassesTheIoPath) {
  TempDir dir;
  const std::string path = dir.File("not/yet/there/report.json");
  obs::Counter* bytes = obs::GetCounter("io.bytes_written");
  obs::Counter* flushes = obs::GetCounter("io.flushes");
  const std::uint64_t bytes_before = bytes->value();
  const std::uint64_t flushes_before = flushes->value();
  IoFailureHookRef() = [](const std::string&) { return true; };
  const Status status = WriteFile(path, "{\"ok\": true}\n");
  IoFailureHookRef() = nullptr;
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"ok\": true}\n");
  EXPECT_EQ(bytes->value(), bytes_before);
  EXPECT_EQ(flushes->value(), flushes_before);
}

TEST(FsTest, WriteFileReportsAnUnwritablePath) {
  TempDir dir;
  ASSERT_TRUE(WriteFile(dir.File("file"), "x").ok());
  EXPECT_FALSE(WriteFile(dir.File("file/child.json"), "x").ok());
}

TEST(ExternalSorterTest, InMemoryOnlySort) {
  TempDir dir;
  ExternalSorter<std::uint64_t> sorter({dir.path(), 1024, "t"});
  for (std::uint64_t v : {5ULL, 3ULL, 9ULL, 1ULL}) sorter.Add(v);
  EXPECT_EQ(sorter.num_runs(), 0u);  // fits in buffer
  std::vector<std::uint64_t> out;
  sorter.Merge(false, [&](const std::uint64_t& v) { out.push_back(v); });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3, 5, 9}));
}

TEST(ExternalSorterTest, SpillsAndMergesAcrossRuns) {
  TempDir dir;
  ExternalSorter<std::uint64_t> sorter({dir.path(), 100, "t"});
  rng::Rng rng(3);
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.NextUint64();
    sorter.Add(v);
    reference.push_back(v);
  }
  EXPECT_GT(sorter.num_runs(), 50u);
  EXPECT_GT(sorter.bytes_spilled(), 0u);
  std::sort(reference.begin(), reference.end());
  std::vector<std::uint64_t> out;
  std::uint64_t n = sorter.Merge(false, [&](const std::uint64_t& v) {
    out.push_back(v);
  });
  EXPECT_EQ(n, reference.size());
  EXPECT_EQ(out, reference);
}

TEST(ExternalSorterTest, DedupRemovesDuplicatesAcrossRuns) {
  TempDir dir;
  ExternalSorter<std::uint64_t> sorter({dir.path(), 64, "t"});
  std::set<std::uint64_t> reference;
  rng::Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = rng.NextBounded(500);  // heavy duplication
    sorter.Add(v);
    reference.insert(v);
  }
  std::vector<std::uint64_t> out;
  std::uint64_t n =
      sorter.Merge(true, [&](const std::uint64_t& v) { out.push_back(v); });
  EXPECT_EQ(n, reference.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
  EXPECT_EQ(std::vector<std::uint64_t>(reference.begin(), reference.end()),
            out);
}

TEST(ExternalSorterTest, SortsEdgeRecords) {
  TempDir dir;
  ExternalSorter<Edge> sorter({dir.path(), 128, "edges"});
  rng::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    sorter.Add(Edge{rng.NextBounded(100), rng.NextBounded(100)});
  }
  Edge last{0, 0};
  bool first = true;
  std::uint64_t n = sorter.Merge(true, [&](const Edge& e) {
    if (!first) {
      EXPECT_LT(last, e);
    }
    last = e;
    first = false;
  });
  EXPECT_GT(n, 0u);
  EXPECT_LE(n, 3000u);
}

TEST(ExternalSorterTest, EmptyInput) {
  TempDir dir;
  ExternalSorter<std::uint64_t> sorter({dir.path(), 16, "e"});
  std::uint64_t n = sorter.Merge(true, [](const std::uint64_t&) {
    FAIL() << "callback on empty input";
  });
  EXPECT_EQ(n, 0u);
}

TEST(ExternalSorterTest, RunFilesCleanedUpOnDestruction) {
  TempDir dir;
  {
    ExternalSorter<std::uint64_t> sorter({dir.path(), 16, "c"});
    for (std::uint64_t i = 0; i < 1000; ++i) sorter.Add(i);
    EXPECT_GT(sorter.num_runs(), 0u);
  }
  // Only the directory itself remains.
  int files = 0;
  for (auto it : std::filesystem::directory_iterator(dir.path())) {
    (void)it;
    ++files;
  }
  EXPECT_EQ(files, 0);
}

}  // namespace
}  // namespace tg::storage
