#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_report.h"
#include "rng/random.h"
#include "util/common.h"
#include "util/flags.h"
#include "util/flat_set64.h"
#include "util/json.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace tg {
namespace {

TEST(FlatSet64Test, InsertAndContains) {
  FlatSet64 set;
  EXPECT_TRUE(set.Insert(1));
  EXPECT_TRUE(set.Insert(2));
  EXPECT_FALSE(set.Insert(1));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatSet64Test, ZeroIsAValidKey) {
  FlatSet64 set;
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Contains(0));
}

TEST(FlatSet64Test, GrowsBeyondInitialCapacity) {
  FlatSet64 set(4);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.Insert(i * 2654435761ULL));
  }
  EXPECT_EQ(set.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.Contains(i * 2654435761ULL));
  }
}

TEST(FlatSet64Test, MatchesStdSetUnderRandomWorkload) {
  FlatSet64 set;
  std::set<std::uint64_t> reference;
  rng::Rng rng(77);
  for (int i = 0; i < 50000; ++i) {
    std::uint64_t key = rng.NextBounded(10000);
    EXPECT_EQ(set.Insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  std::size_t visited = 0;
  set.ForEach([&](std::uint64_t key) {
    EXPECT_TRUE(reference.count(key));
    ++visited;
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatSet64Test, ResetReusesStorage) {
  FlatSet64 set(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) set.Insert(i);
  set.Reset(10);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.Insert(5));
}

TEST(FlatSet64Test, MemoryBytesTracksCapacity) {
  FlatSet64 set(100);
  std::size_t initial = set.MemoryBytes();
  EXPECT_GE(initial, 200 * sizeof(std::uint64_t));  // >= 2x load headroom
  for (std::uint64_t i = 0; i < 100000; ++i) set.Insert(i);
  EXPECT_GT(set.MemoryBytes(), initial);
}

TEST(MemoryBudgetTest, TracksUsageAndPeak) {
  MemoryBudget budget;
  budget.Allocate(100);
  budget.Allocate(50);
  EXPECT_EQ(budget.used_bytes(), 150u);
  EXPECT_EQ(budget.peak_bytes(), 150u);
  budget.Release(120);
  EXPECT_EQ(budget.used_bytes(), 30u);
  EXPECT_EQ(budget.peak_bytes(), 150u);
}

TEST(MemoryBudgetTest, ThrowsOomWhenLimitExceeded) {
  MemoryBudget budget(1000);
  budget.Allocate(900);
  EXPECT_THROW(budget.Allocate(200), OomError);
  // Failed allocation must not leak into the accounting.
  EXPECT_EQ(budget.used_bytes(), 900u);
  budget.Release(900);
  budget.Allocate(1000);  // exactly at the limit is fine
}

TEST(MemoryBudgetTest, ResizeAdjustsInBothDirections) {
  MemoryBudget budget(1000);
  budget.Allocate(500);
  budget.Resize(500, 800);
  EXPECT_EQ(budget.used_bytes(), 800u);
  budget.Resize(800, 100);
  EXPECT_EQ(budget.used_bytes(), 100u);
}

TEST(ScopedAllocationTest, ReleasesOnDestruction) {
  MemoryBudget budget;
  {
    ScopedAllocation alloc(&budget, 256);
    EXPECT_EQ(budget.used_bytes(), 256u);
    alloc.ResizeTo(512);
    EXPECT_EQ(budget.used_bytes(), 512u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(budget.peak_bytes(), 512u);
}

TEST(ScopedAllocationTest, NullBudgetIsNoop) {
  ScopedAllocation alloc(nullptr, 1024);
  alloc.ResizeTo(2048);
  EXPECT_EQ(alloc.bytes(), 2048u);
}

TEST(MemoryBudgetTest, TagsAttributeUsedAndPeak) {
  MemoryBudget budget;
  MemoryBudget::TagStats* dedup = budget.Tag("core.scope_dedup");
  MemoryBudget::TagStats* shuffle = budget.Tag("cluster.shuffle_buf");
  EXPECT_EQ(budget.Tag("core.scope_dedup"), dedup);  // interned, stable
  budget.Allocate(100, dedup);
  budget.Allocate(300, shuffle);
  budget.Release(50, dedup);
  EXPECT_EQ(dedup->used.load(), 50u);
  EXPECT_EQ(dedup->peak.load(), 100u);
  EXPECT_EQ(shuffle->used.load(), 300u);
  EXPECT_EQ(budget.used_bytes(), 350u);

  std::vector<OomReport::TagUsage> breakdown = budget.TagBreakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].tag, "cluster.shuffle_buf");
  EXPECT_EQ(breakdown[0].used_bytes, 300u);
  EXPECT_EQ(breakdown[1].tag, "core.scope_dedup");
  EXPECT_EQ(breakdown[1].peak_bytes, 100u);
}

TEST(MemoryBudgetTest, OomErrorCarriesForensicReport) {
  MemoryBudget budget(1000, /*machine=*/3);
  budget.Allocate(600, budget.Tag("baseline.rmat.edge_set"));
  try {
    budget.Allocate(500, budget.Tag("cluster.shuffle_buf"));
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    const OomReport& report = e.report();
    EXPECT_EQ(report.machine, 3);
    EXPECT_EQ(report.tag, "cluster.shuffle_buf");
    EXPECT_EQ(report.requested_bytes, 500u);
    EXPECT_EQ(report.used_bytes, 600u);
    EXPECT_EQ(report.limit_bytes, 1000u);
    ASSERT_EQ(report.breakdown.size(), 2u);
    EXPECT_EQ(report.breakdown[0].tag, "baseline.rmat.edge_set");
    EXPECT_EQ(report.breakdown[0].used_bytes, 600u);
    // what() names machine and tag for bare catch sites.
    EXPECT_NE(std::string(e.what()).find("machine 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cluster.shuffle_buf"),
              std::string::npos);
  }
  // Failed allocation must not leak into total or per-tag accounting.
  EXPECT_EQ(budget.used_bytes(), 600u);
  EXPECT_EQ(budget.Tag("cluster.shuffle_buf")->used.load(), 0u);
}

TEST(MemoryBudgetTest, ReleaseAllZerosUsedAndKeepsPeaks) {
  MemoryBudget budget;
  MemoryBudget::TagStats* tag = budget.Tag("cluster.shuffle_buf");
  budget.Allocate(512, tag);
  budget.ReleaseAll();
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(tag->used.load(), 0u);
  EXPECT_EQ(budget.peak_bytes(), 512u);
  EXPECT_EQ(tag->peak.load(), 512u);
}

TEST(MemoryBudgetTest, ForEachBudgetSeesLiveBudgets) {
  MemoryBudget budget(0, /*machine=*/7);
  budget.Allocate(123);
  bool seen = false;
  MemoryBudget::ForEachBudget([&](const MemoryBudget& b) {
    if (&b == &budget) {
      seen = true;
      EXPECT_EQ(b.machine(), 7);
      EXPECT_EQ(b.used_bytes(), 123u);
    }
  });
  EXPECT_TRUE(seen);
}

#ifndef NDEBUG
TEST(MemoryBudgetDeathTest, ReleaseUnderflowDiesInDebugBuilds) {
  EXPECT_DEATH(
      {
        MemoryBudget budget;
        budget.Allocate(10);
        budget.Release(20);
      },
      "release underflow");
}
#else
TEST(MemoryBudgetTest, ReleaseUnderflowClampsToZeroInReleaseBuilds) {
  MemoryBudget budget;
  MemoryBudget::TagStats* tag = budget.Tag("t");
  budget.Allocate(10, tag);
  budget.Release(20, tag);  // caller bug: clamps instead of wrapping to 2^64
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(tag->used.load(), 0u);
  budget.Allocate(5, tag);  // accounting still usable afterwards
  EXPECT_EQ(budget.used_bytes(), 5u);
}
#endif

TEST(MemoryBudgetTest, ConcurrentAllocationsTrackPeakExactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1 << 16;
  MemoryBudget budget;
  MemoryBudget::TagStats* tag = budget.Tag("test.concurrent");
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      budget.Allocate(kPerThread, tag);
    });
  }
  for (std::thread& t : pool) t.join();
  // All threads held their registration simultaneously at join time, so the
  // peak must reflect the full sum (fetch_add returns the exact high-water).
  EXPECT_EQ(budget.used_bytes(), kThreads * kPerThread);
  EXPECT_EQ(budget.peak_bytes(), kThreads * kPerThread);
  EXPECT_EQ(tag->peak.load(), kThreads * kPerThread);
  budget.Release(kThreads * kPerThread, tag);
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(budget.peak_bytes(), kThreads * kPerThread);
}

TEST(ScopedAllocationTest, FailedGrowKeepsRegistrationConsistent) {
  MemoryBudget budget(1000);
  ScopedAllocation alloc(&budget, 400, "test.buffer");
  EXPECT_THROW(alloc.ResizeTo(2000), OomError);
  // The failed grow left both the scope and the budget at the old size...
  EXPECT_EQ(alloc.bytes(), 400u);
  EXPECT_EQ(budget.used_bytes(), 400u);
  // ...so shrinking and destruction stay balanced.
  alloc.ResizeTo(100);
  EXPECT_EQ(budget.used_bytes(), 100u);
}

TEST(ScopedAllocationTest, DestructorReleasesTaggedRegistration) {
  MemoryBudget budget;
  MemoryBudget::TagStats* tag = budget.Tag("test.buffer");
  {
    ScopedAllocation alloc(&budget, 256, tag);
    EXPECT_EQ(tag->used.load(), 256u);
  }
  EXPECT_EQ(tag->used.load(), 0u);
  EXPECT_EQ(tag->peak.load(), 256u);
}

TEST(ByteSizeTest, ParsesHumanReadableSizes) {
  std::uint64_t bytes = 0;
  EXPECT_TRUE(ParseByteSize("1024", &bytes));
  EXPECT_EQ(bytes, 1024u);
  EXPECT_TRUE(ParseByteSize("512m", &bytes));
  EXPECT_EQ(bytes, 512ULL << 20);
  EXPECT_TRUE(ParseByteSize("2g", &bytes));
  EXPECT_EQ(bytes, 2ULL << 30);
  EXPECT_TRUE(ParseByteSize("64K", &bytes));
  EXPECT_EQ(bytes, 64ULL << 10);
  EXPECT_TRUE(ParseByteSize("1t", &bytes));
  EXPECT_EQ(bytes, 1ULL << 40);
  EXPECT_TRUE(ParseByteSize("100b", &bytes));
  EXPECT_EQ(bytes, 100u);
  EXPECT_TRUE(ParseByteSize("16MiB", &bytes));
  EXPECT_EQ(bytes, 16ULL << 20);
  EXPECT_TRUE(ParseByteSize("1.5g", &bytes));
  EXPECT_EQ(bytes, 3ULL << 29);  // fractional values round to bytes
}

TEST(ByteSizeTest, RejectsMalformedSizes) {
  std::uint64_t bytes = 0;
  EXPECT_FALSE(ParseByteSize("", &bytes));
  EXPECT_FALSE(ParseByteSize("abc", &bytes));
  EXPECT_FALSE(ParseByteSize("12q", &bytes));
  EXPECT_FALSE(ParseByteSize("12mx", &bytes));
  EXPECT_FALSE(ParseByteSize("-5m", &bytes));
}

TEST(FlagParserTest, GetBytesParsesSuffixedSizes) {
  const char* argv[] = {"prog", "--mem_budget=48m", "--bad=12q"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetBytes("mem_budget", 0), 48ULL << 20);
  EXPECT_EQ(flags.GetBytes("missing", 7), 7u);   // absent -> default
  EXPECT_EQ(flags.GetBytes("bad", 9), 9u);       // unparseable -> default
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::IoError("open failed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: open failed");
}

TEST(FlagParserTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog",          "--scale=20",    "--format=adj6",
                        "positional1",   "--verbose",     "--ratio=0.5",
                        "--enabled=false"};
  FlagParser flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("scale", 0), 20);
  EXPECT_EQ(flags.GetString("format", ""), "adj6");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("enabled", true));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional1");
  EXPECT_TRUE(flags.Has("scale"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, ParsesSpaceSeparatedValues) {
  const char* argv[] = {"prog", "--scale", "16", "--out", "/tmp/g",
                        "--verbose"};
  FlagParser flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("scale", 0), 16);
  EXPECT_EQ(flags.GetString("out", ""), "/tmp/g");
  // A trailing bare flag still reads as boolean true.
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.positional().empty());
}

TEST(EdgeTest, ComparisonAndEquality) {
  Edge a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_EQ(a, (Edge{1, 2}));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// --- \uXXXX escape decoding (util/json.h). Previously the escape was
// truncated to its low byte, corrupting any non-ASCII content; now it
// UTF-8-encodes the code point, combining surrogate pairs.

TEST(JsonUnicodeTest, BasicMultilingualPlaneEscapes) {
  json::Value doc;
  ASSERT_TRUE(json::Parse("\"caf\\u00e9\"", &doc).ok());
  EXPECT_EQ(doc.str, "caf\xc3\xa9");  // é as two UTF-8 bytes
  ASSERT_TRUE(json::Parse("\"\\u203d\"", &doc).ok());
  EXPECT_EQ(doc.str, "\xe2\x80\xbd");  // ‽, three UTF-8 bytes
  // ASCII escapes still decode to single bytes.
  ASSERT_TRUE(json::Parse("\"\\u0041\\u000a\"", &doc).ok());
  EXPECT_EQ(doc.str, "A\n");
}

TEST(JsonUnicodeTest, SurrogatePairsCombine) {
  json::Value doc;
  // U+1F600 (😀) = \ud83d\ude00 -> four UTF-8 bytes.
  ASSERT_TRUE(json::Parse("\"\\ud83d\\ude00\"", &doc).ok());
  EXPECT_EQ(doc.str, "\xf0\x9f\x98\x80");
}

TEST(JsonUnicodeTest, LoneSurrogatesBecomeReplacementCharacter) {
  const std::string replacement = "\xef\xbf\xbd";  // U+FFFD
  json::Value doc;
  ASSERT_TRUE(json::Parse("\"\\ud83d\"", &doc).ok());  // unpaired high
  EXPECT_EQ(doc.str, replacement);
  ASSERT_TRUE(json::Parse("\"\\ude00\"", &doc).ok());  // unpaired low
  EXPECT_EQ(doc.str, replacement);
  // High surrogate followed by a non-surrogate escape: U+FFFD, then the
  // second escape decodes on its own.
  ASSERT_TRUE(json::Parse("\"\\ud83dx\"", &doc).ok());
  EXPECT_EQ(doc.str, replacement + "x");
}

TEST(JsonUnicodeTest, MalformedEscapesAreRejected) {
  json::Value doc;
  EXPECT_FALSE(json::Parse("\"\\u12\"", &doc).ok());    // too short
  EXPECT_FALSE(json::Parse("\"\\uzzzz\"", &doc).ok());  // not hex
}

// --- Nesting bound: the parser recurses once per open container, so an
// untrusted document (a serve request body) must not choose the depth.

TEST(JsonDepthTest, DeepNestingIsRejectedWithoutCrashing) {
  json::Value doc;
  const Status s = json::Parse(std::string(60000, '['), &doc);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  const std::string objects = [] {
    std::string text;
    for (int i = 0; i < 60000; ++i) text += "{\"k\":";
    return text;
  }();
  EXPECT_EQ(json::Parse(objects, &doc).code(), Status::Code::kCorruption);
}

TEST(JsonDepthTest, DocumentAtTheLimitParses) {
  const int depth = json::kMaxNestingDepth;
  json::Value doc;
  ASSERT_TRUE(json::Parse(std::string(depth, '[') + "7" +
                              std::string(depth, ']'),
                          &doc)
                  .ok());
  const json::Value* v = &doc;
  for (int i = 0; i < depth; ++i) {
    ASSERT_TRUE(v->is_array() && v->array.size() == 1u) << i;
    v = &v->array[0];
  }
  EXPECT_EQ(v->U64Or(0), 7u);
  // One level more is refused.
  EXPECT_FALSE(json::Parse(std::string(depth + 1, '[') +
                               std::string(depth + 1, ']'),
                           &doc)
                   .ok());
}

TEST(JsonNumberTest, NonNegativeIntegersAreExact) {
  json::Value doc;
  ASSERT_TRUE(json::Parse("[18446744073709551615, 9007199254740993, "
                          "18446744073709551616, -1, 2.5]",
                          &doc)
                  .ok());
  ASSERT_EQ(doc.array.size(), 5u);
  EXPECT_EQ(doc.array[0].U64Or(0), UINT64_MAX);
  EXPECT_EQ(doc.array[1].U64Or(0), (std::uint64_t{1} << 53) + 1);
  EXPECT_FALSE(doc.array[2].is_u64);  // out of range: double only
  EXPECT_EQ(doc.array[2].U64Or(0), UINT64_MAX);
  EXPECT_EQ(doc.array[3].U64Or(9), 0u);
  EXPECT_EQ(doc.array[4].U64Or(0), 2u);
  EXPECT_DOUBLE_EQ(doc.array[4].number, 2.5);
}

TEST(JsonUnicodeTest, RunReportMetaRoundTripsMultiByteContent) {
  // RunReport's writer passes multi-byte UTF-8 through verbatim and escapes
  // control characters as \uXXXX; both parsers must reproduce the original.
  obs::RunReport report;
  report.meta["path"] = "caf\xc3\xa9/run\t1";
  report.meta["emoji"] = "\xf0\x9f\x98\x80";
  const std::string text = report.ToJson();

  obs::RunReport back;
  ASSERT_TRUE(obs::RunReport::FromJson(text, &back).ok());
  EXPECT_EQ(back.meta, report.meta);

  json::Value doc;
  ASSERT_TRUE(json::Parse(text, &doc).ok());
  const json::Value* meta = doc.Find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("path")->StringOr(""), "caf\xc3\xa9/run\t1");
  EXPECT_EQ(meta->Find("emoji")->StringOr(""), "\xf0\x9f\x98\x80");
}

}  // namespace
}  // namespace tg
