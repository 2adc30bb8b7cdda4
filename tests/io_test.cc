// Tests for the I/O fast path: the double-buffered async writer
// (storage/async_writer.h) against the three FileWriterBase contracts, the
// zero-copy mmap'd CSR6 reader (format/csr6_mapped.h), and the branchless TSV
// formatter/parser (format/tsv.cc). The recurring theme is bit-identity:
// whatever transport moves the bytes, the files must match the synchronous
// stdio writer byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "format/adj6.h"
#include "format/csr6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "obs/metrics.h"
#include "storage/async_writer.h"
#include "storage/file_io.h"
#include "storage/temp_dir.h"

namespace tg {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream data;
  data << in.rdbuf();
  return data.str();
}

/// Clears the process-wide storage failure hook on scope exit, so a failing
/// test cannot poison later ones.
struct IoHookGuard {
  ~IoHookGuard() { storage::IoFailureHookRef() = nullptr; }
};

/// Deterministic adjacency lists of varied sizes (including empty ones) —
/// the same scope stream is fed to every transport under test.
std::vector<std::vector<VertexId>> TestScopes(int count, std::uint64_t seed) {
  std::vector<std::vector<VertexId>> scopes(count);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  };
  for (int u = 0; u < count; ++u) {
    const std::size_t degree = next() % 8;  // 0..7, empties included
    scopes[u].resize(degree);
    for (std::size_t i = 0; i < degree; ++i) {
      scopes[u][i] = next() % (std::uint64_t{1} << 48);
    }
  }
  return scopes;
}

// ---------------------------------------------------------------------------
// I/O spec parsing and writer selection.

TEST(IoSpecTest, ParseRoundTripsEveryMode) {
  for (const char* spec : {"sync", "async"}) {
    storage::IoConfig config;
    ASSERT_TRUE(storage::ParseIoSpec(spec, &config).ok()) << spec;
    EXPECT_EQ(storage::IoSpecString(config), spec);
  }
}

TEST(IoSpecTest, RejectsUnknownSpecs) {
  storage::IoConfig config;
  for (const char* spec : {"", "fast", "async,", "async,pwrite", "Sync"}) {
    EXPECT_FALSE(storage::ParseIoSpec(spec, &config).ok()) << spec;
  }
}

TEST(IoSpecTest, MakeFileWriterHonorsScopedConfig) {
  {
    storage::ScopedIoConfig scoped({storage::IoMode::kSync});
    auto writer = storage::MakeFileWriter();
    EXPECT_NE(dynamic_cast<storage::FileWriter*>(writer.get()), nullptr);
  }
  {
    storage::ScopedIoConfig scoped({storage::IoMode::kAsync});
    auto writer = storage::MakeFileWriter();
    EXPECT_NE(dynamic_cast<storage::AsyncFileWriter*>(writer.get()), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity between transports.

// Drives one writer through every append shape: sub-buffer runs, 48/64-bit
// integers, and a run larger than the buffer (the direct-write path).
void WriteMixedWorkload(storage::FileWriterBase* writer,
                        std::size_t buffer_bytes) {
  std::uint64_t state = 99;
  for (int i = 0; i < 200; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    char chunk[48];
    const std::size_t n = 1 + (state >> 20) % sizeof(chunk);
    std::memset(chunk, static_cast<int>('a' + i % 26), n);
    writer->Append(chunk, n);
    writer->Append48(state % (std::uint64_t{1} << 48));
    writer->Append64(state);
  }
  const std::vector<char> big(3 * buffer_bytes + 17, 'Z');
  writer->Append(big.data(), big.size());
  writer->Append("tail", 4);
}

TEST(TransportIdentityTest, RawWritersProduceIdenticalBytes) {
  storage::TempDir dir;
  for (const std::size_t buffer_bytes : {std::size_t{64}, std::size_t{4096},
                                         std::size_t{1} << 20}) {
    storage::FileWriter sync_writer(buffer_bytes);
    storage::AsyncFileWriter async_writer(buffer_bytes);
    struct Case {
      storage::FileWriterBase* writer;
      std::string path;
    };
    const std::string tag = std::to_string(buffer_bytes);
    std::vector<Case> cases = {
        {&sync_writer, dir.File("sync." + tag)},
        {&async_writer, dir.File("async." + tag)},
    };
    for (Case& c : cases) {
      ASSERT_TRUE(c.writer->Open(c.path).ok());
      WriteMixedWorkload(c.writer, buffer_bytes);
      ASSERT_TRUE(c.writer->Close().ok()) << c.path;
    }
    const std::string reference = ReadFileBytes(cases[0].path);
    EXPECT_GT(reference.size(), 3 * buffer_bytes);
    for (std::size_t i = 1; i < cases.size(); ++i) {
      EXPECT_EQ(ReadFileBytes(cases[i].path), reference)
          << cases[i].path << " diverges from the sync writer";
    }
  }
}

TEST(TransportIdentityTest, FormatWritersBitIdenticalSyncVsAsync) {
  storage::TempDir dir;
  const auto scopes = TestScopes(500, 7);
  const storage::IoConfig modes[] = {{storage::IoMode::kSync},
                                     {storage::IoMode::kAsync}};
  std::vector<std::string> tsv_bytes, adj6_bytes, csr6_bytes;
  for (const storage::IoConfig& mode : modes) {
    storage::ScopedIoConfig scoped(mode);
    const std::string tag = storage::IoSpecString(mode);
    {
      format::TsvWriter writer(dir.File(tag + ".tsv"));
      for (std::size_t u = 0; u < scopes.size(); ++u) {
        writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
      }
      writer.Finish();
      ASSERT_TRUE(writer.status().ok());
    }
    {
      format::Adj6Writer writer(dir.File(tag + ".adj6"));
      for (std::size_t u = 0; u < scopes.size(); ++u) {
        writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
      }
      writer.Finish();
      ASSERT_TRUE(writer.status().ok());
    }
    {
      format::Csr6Writer writer(dir.File(tag + ".csr6"), 0, scopes.size());
      for (std::size_t u = 0; u < scopes.size(); ++u) {
        writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
      }
      writer.Finish();
      ASSERT_TRUE(writer.status().ok());
    }
    tsv_bytes.push_back(ReadFileBytes(dir.File(tag + ".tsv")));
    adj6_bytes.push_back(ReadFileBytes(dir.File(tag + ".adj6")));
    csr6_bytes.push_back(ReadFileBytes(dir.File(tag + ".csr6")));
  }
  for (std::size_t i = 1; i < tsv_bytes.size(); ++i) {
    EXPECT_EQ(tsv_bytes[i], tsv_bytes[0]);
    EXPECT_EQ(adj6_bytes[i], adj6_bytes[0]);
    EXPECT_EQ(csr6_bytes[i], csr6_bytes[0]);
  }
}

// ---------------------------------------------------------------------------
// The three FileWriterBase contracts across the thread hop.

TEST(AsyncContractTest, InjectedFailureIsStickyAndFreezesBytes) {
  IoHookGuard guard;
  storage::TempDir dir;
  storage::AsyncFileWriter writer(64);  // tiny buffer: every append flushes
  ASSERT_TRUE(writer.Open(dir.File("sticky")).ok());
  const std::vector<char> chunk(64, 'x');
  writer.Append(chunk.data(), chunk.size());
  ASSERT_TRUE(writer.FlushToOs().ok());

  storage::IoFailureHookRef() = [](const std::string&) { return true; };
  writer.Append(chunk.data(), chunk.size());
  writer.Append(chunk.data(), chunk.size());  // forces a handoff
  // The hook fires on the writer thread; FlushToOs is the producer-side
  // barrier after which the failure must be visible.
  EXPECT_FALSE(writer.FlushToOs().ok());
  storage::IoFailureHookRef() = nullptr;

  const std::uint64_t frozen = writer.bytes_written();
  writer.Append(chunk.data(), chunk.size());  // dropped, not buffered
  writer.Append48(1);
  EXPECT_EQ(writer.bytes_written(), frozen);
  const Status closed = writer.Close();
  EXPECT_FALSE(closed.ok());
  EXPECT_NE(closed.ToString().find("injected I/O failure"), std::string::npos)
      << closed.ToString();
}

TEST(AsyncContractTest, CommitStateFailureLeavesTokenUntouched) {
  IoHookGuard guard;
  storage::TempDir dir;
  storage::ScopedIoConfig scoped({storage::IoMode::kAsync});
  format::Adj6Writer writer(dir.File("commit.adj6"));
  const VertexId adj[3] = {4, 5, 6};
  writer.ConsumeScope(0, adj, 3);
  std::string token = "unset";
  ASSERT_TRUE(writer.CommitState(&token).ok());
  const std::string committed = token;
  EXPECT_NE(committed, "unset");

  storage::IoFailureHookRef() = [](const std::string&) { return true; };
  writer.ConsumeScope(1, adj, 3);
  EXPECT_FALSE(writer.CommitState(&token).ok());
  storage::IoFailureHookRef() = nullptr;
  // The journal only records tokens from Ok commits: a failed commit must
  // not have produced a new one.
  EXPECT_EQ(token, committed);
  EXPECT_FALSE(writer.status().ok());
}

TEST(AsyncContractTest, FlushToOsIsTheDurabilityBarrier) {
  storage::TempDir dir;
  storage::AsyncFileWriter writer(1 << 20);
  const std::string path = dir.File("durable");
  ASSERT_TRUE(writer.Open(path).ok());
  const std::string payload(100000, 'd');
  writer.Append(payload.data(), payload.size());
  ASSERT_TRUE(writer.FlushToOs().ok());
  // After the barrier every appended byte is in the kernel: the file really
  // is that long, even though the writer is still open.
  EXPECT_EQ(std::filesystem::file_size(path), payload.size());
  EXPECT_EQ(writer.bytes_written(), payload.size());
  ASSERT_TRUE(writer.Close().ok());
}

TEST(AsyncContractTest, RewriteAtPatchesEarlierBytesInPlace) {
  storage::TempDir dir;
  for (const bool use_async : {false, true}) {
    std::unique_ptr<storage::FileWriterBase> writer;
    if (use_async) {
      writer = std::make_unique<storage::AsyncFileWriter>(64);
    } else {
      writer = std::make_unique<storage::FileWriter>(64);
    }
    const std::string path = dir.File(use_async ? "rw.async" : "rw.sync");
    ASSERT_TRUE(writer->Open(path).ok());
    std::string body(200, '.');
    writer->Append(body.data(), body.size());
    ASSERT_TRUE(writer->RewriteAt(0, "HEADER", 6).ok());
    EXPECT_EQ(writer->bytes_written(), body.size());  // rewrite adds nothing
    writer->Append("!", 1);
    ASSERT_TRUE(writer->Close().ok());
    std::string expected = body + "!";
    std::memcpy(expected.data(), "HEADER", 6);
    EXPECT_EQ(ReadFileBytes(path), expected);
  }
}

TEST(AsyncContractTest, OpenAfterFailedOpenStartsClean) {
  storage::TempDir dir;
  for (const bool use_async : {false, true}) {
    std::unique_ptr<storage::FileWriterBase> writer;
    if (use_async) {
      writer = std::make_unique<storage::AsyncFileWriter>(1 << 16);
    } else {
      writer = std::make_unique<storage::FileWriter>(1 << 16);
    }
    EXPECT_FALSE(writer->Open("/nonexistent_dir_xyz/out").ok());
    writer->Append("stale bytes", 11);  // dropped: nothing is open
    // Reopening the same object must start from a clean slate: empty buffer,
    // cleared error state.
    const std::string path = dir.File(use_async ? "clean.async" : "clean.sync");
    ASSERT_TRUE(writer->Open(path).ok());
    EXPECT_TRUE(writer->status().ok());
    writer->Append("B", 1);
    ASSERT_TRUE(writer->Close().ok());
    EXPECT_EQ(ReadFileBytes(path), "B");
  }
}

TEST(AsyncContractTest, IoCountersCompareExactlyBetweenModes) {
  storage::TempDir dir;
  const auto scopes = TestScopes(300, 3);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> deltas;
  for (const storage::IoMode mode :
       {storage::IoMode::kSync, storage::IoMode::kAsync}) {
    storage::ScopedIoConfig scoped({mode});
    obs::Counter* bytes = obs::GetCounter("io.bytes_written");
    obs::Counter* flushes = obs::GetCounter("io.flushes");
    const std::uint64_t bytes_before = bytes->value();
    const std::uint64_t flushes_before = flushes->value();
    format::Adj6Writer writer(
        dir.File(mode == storage::IoMode::kSync ? "c.sync" : "c.async"));
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    writer.Finish();
    ASSERT_TRUE(writer.status().ok());
    deltas.emplace_back(bytes->value() - bytes_before,
                        flushes->value() - flushes_before);
  }
  // io.* counts producer->backend handoffs, which do not depend on the
  // transport: bench baselines rely on sync and async agreeing exactly.
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_GT(deltas[0].first, 0u);
}

// ---------------------------------------------------------------------------
// Per-scope encoder reservations against the per-value reference path.

/// What one writer run left behind.
struct WriterRun {
  std::string bytes;
  bool ok = false;
  std::uint64_t flushes = 0;  ///< io.flushes handoffs during the run
};

/// Runs `write(path)` under `mode`, failing the `fail_at`-th raw write of
/// the backend (0: none). `write` returns the writer's final status.ok().
template <typename Fn>
WriterRun RunWriter(const storage::IoConfig& mode, const std::string& path,
                    int fail_at, Fn&& write) {
  IoHookGuard guard;
  storage::ScopedIoConfig scoped(mode);
  std::atomic<int> writes{0};
  if (fail_at > 0) {
    storage::IoFailureHookRef() = [&writes, fail_at](const std::string&) {
      return ++writes == fail_at;
    };
  }
  obs::Counter* flushes = obs::GetCounter("io.flushes");
  const std::uint64_t before = flushes->value();
  WriterRun run;
  run.ok = write(path);
  run.flushes = flushes->value() - before;
  storage::IoFailureHookRef() = nullptr;
  run.bytes = ReadFileBytes(path);
  return run;
}

/// Small scopes with two scopes larger than the 1 MiB staging buffer in
/// between, so records straddle flushes in both formats.
std::vector<std::vector<VertexId>> ScopesWithHugeOnes() {
  auto scopes = TestScopes(200, 11);
  std::uint64_t state = 5;
  for (const int at : {50, 120}) {
    scopes[at].resize(200000);
    for (VertexId& v : scopes[at]) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v = (state >> 16) >> (state & 31);  // ids of every digit count
    }
  }
  return scopes;
}

void ExpectSameRun(const WriterRun& encoded, const WriterRun& reference,
                   bool compare_flushes, const std::string& what) {
  EXPECT_EQ(encoded.bytes.size(), reference.bytes.size()) << what;
  EXPECT_TRUE(encoded.bytes == reference.bytes) << what;
  EXPECT_EQ(encoded.ok, reference.ok) << what;
  if (compare_flushes) {
    EXPECT_EQ(encoded.flushes, reference.flushes) << what;
  }
}

TEST(ScopeEncoderTest, Adj6MatchesPerValueAppendsAcrossFlushesAndFaults) {
  storage::TempDir dir;
  const auto scopes = ScopesWithHugeOnes();
  auto encoded = [&](const std::string& path) {
    format::Adj6Writer writer(path);
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    writer.Finish();
    return writer.status().ok();
  };
  auto per_value = [&](const std::string& path) {
    std::unique_ptr<storage::FileWriterBase> writer = storage::MakeFileWriter();
    writer->Open(path);
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      if (scopes[u].empty()) continue;
      writer->Append48(u);
      writer->Append48(scopes[u].size());
      for (VertexId v : scopes[u]) writer->Append48(v);
    }
    writer->Close();
    return writer->status().ok();
  };
  for (const storage::IoConfig& mode :
       {storage::IoConfig{storage::IoMode::kSync},
        storage::IoConfig{storage::IoMode::kAsync}}) {
    for (const int fail_at : {0, 2}) {
      const std::string what = storage::IoSpecString(mode) +
                               " fail_at=" + std::to_string(fail_at);
      const WriterRun enc = RunWriter(mode, dir.File("enc.adj6"), fail_at,
                                      encoded);
      const WriterRun ref = RunWriter(mode, dir.File("ref.adj6"), fail_at,
                                      per_value);
      EXPECT_EQ(enc.ok, fail_at == 0) << what;
      // After an injected failure the async producer notices it at a
      // timing-dependent handoff; the bytes on disk are still exact.
      ExpectSameRun(enc, ref,
                    fail_at == 0 || mode.mode == storage::IoMode::kSync, what);
    }
  }
}

TEST(ScopeEncoderTest, TsvMatchesPerEdgeWritesAcrossFlushesAndFaults) {
  storage::TempDir dir;
  const auto scopes = ScopesWithHugeOnes();
  for (const bool transposed : {false, true}) {
    auto encoded = [&](const std::string& path) {
      format::TsvWriter writer(path, transposed);
      for (std::size_t u = 0; u < scopes.size(); ++u) {
        writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
      }
      writer.Finish();
      return writer.status().ok();
    };
    auto per_edge = [&](const std::string& path) {
      format::TsvWriter writer(path);
      for (std::size_t u = 0; u < scopes.size(); ++u) {
        for (VertexId v : scopes[u]) {
          if (transposed) {
            writer.WriteEdge(v, u);
          } else {
            writer.WriteEdge(u, v);
          }
        }
      }
      writer.Finish();
      return writer.status().ok();
    };
    for (const storage::IoConfig& mode :
         {storage::IoConfig{storage::IoMode::kSync},
          storage::IoConfig{storage::IoMode::kAsync}}) {
      for (const int fail_at : {0, 2}) {
        const std::string what =
            storage::IoSpecString(mode) + " fail_at=" +
            std::to_string(fail_at) + " transposed=" +
            std::to_string(transposed);
        const WriterRun enc = RunWriter(mode, dir.File("enc.tsv"), fail_at,
                                        encoded);
        const WriterRun ref = RunWriter(mode, dir.File("ref.tsv"), fail_at,
                                        per_edge);
        EXPECT_EQ(enc.ok, fail_at == 0) << what;
        ExpectSameRun(
            enc, ref, fail_at == 0 || mode.mode == storage::IoMode::kSync,
            what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash / --resume round trips on the async transport.

// OpenForResume must truncate a torn tail even when nothing is appended
// after it: the async transport pwrite()s at the resume offset, so a resumed
// run that rewrites the tail would hide a skipped ftruncate.
TEST(TransportResumeTest, OpenForResumeTruncatesToTheOffset) {
  storage::TempDir dir;
  for (const storage::IoMode mode :
       {storage::IoMode::kSync, storage::IoMode::kAsync}) {
    const std::string path =
        dir.File(mode == storage::IoMode::kSync ? "r.sync" : "r.async");
    {
      std::ofstream out(path, std::ios::binary);
      out << std::string(4096, 'x');
    }
    storage::ScopedIoConfig scoped({mode});
    auto writer = storage::MakeFileWriter();
    ASSERT_TRUE(writer->OpenForResume(path, 1000).ok());
    EXPECT_EQ(writer->bytes_written(), 1000u);
    ASSERT_TRUE(writer->Close().ok());
    EXPECT_EQ(std::filesystem::file_size(path), 1000u)
        << storage::IoSpecString({mode});
    EXPECT_TRUE(ReadFileBytes(path) == std::string(1000, 'x'));
  }
}

TEST(AsyncResumeTest, TsvResumeIsByteIdentical) {
  storage::TempDir dir;
  storage::ScopedIoConfig scoped({storage::IoMode::kAsync});
  const auto scopes = TestScopes(64, 11);
  const std::string ref_path = dir.File("ref.tsv");
  {
    format::TsvWriter ref(ref_path);
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      ref.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ref.Finish();
    ASSERT_TRUE(ref.status().ok());
  }
  const std::string cut_path = dir.File("cut.tsv");
  std::string token;
  {
    format::TsvWriter cut(cut_path, false);
    for (std::size_t u = 0; u < 40; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ASSERT_TRUE(cut.CommitState(&token).ok());
    // Uncommitted tail past the checkpoint; the writer is then abandoned
    // without Finish, as a killed process would leave it.
    for (std::size_t u = 40; u < 50; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
  }
  {
    format::TsvWriter resumed(cut_path, false, core::ResumeFrom{token});
    for (std::size_t u = 40; u < scopes.size(); ++u) {
      resumed.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    resumed.Finish();
    ASSERT_TRUE(resumed.status().ok());
  }
  EXPECT_EQ(ReadFileBytes(cut_path), ReadFileBytes(ref_path));
}

TEST(AsyncResumeTest, Adj6ResumeIsByteIdentical) {
  storage::TempDir dir;
  storage::ScopedIoConfig scoped({storage::IoMode::kAsync});
  const auto scopes = TestScopes(64, 13);
  const std::string ref_path = dir.File("ref.adj6");
  {
    format::Adj6Writer ref(ref_path);
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      ref.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ref.Finish();
    ASSERT_TRUE(ref.status().ok());
  }
  const std::string cut_path = dir.File("cut.adj6");
  std::string token;
  {
    format::Adj6Writer cut(cut_path);
    for (std::size_t u = 0; u < 40; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ASSERT_TRUE(cut.CommitState(&token).ok());
    for (std::size_t u = 40; u < 50; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
  }
  {
    format::Adj6Writer resumed(cut_path, core::ResumeFrom{token});
    for (std::size_t u = 40; u < scopes.size(); ++u) {
      resumed.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    resumed.Finish();
    ASSERT_TRUE(resumed.status().ok());
  }
  EXPECT_EQ(ReadFileBytes(cut_path), ReadFileBytes(ref_path));
}

TEST(AsyncResumeTest, Csr6ResumeIsByteIdentical) {
  storage::TempDir dir;
  storage::ScopedIoConfig scoped({storage::IoMode::kAsync});
  const auto scopes = TestScopes(64, 17);
  const VertexId lo = 0, hi = scopes.size();
  const std::string ref_path = dir.File("ref.csr6");
  {
    format::Csr6Writer ref(ref_path, lo, hi);
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      ref.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ref.Finish();
    ASSERT_TRUE(ref.status().ok());
  }
  const std::string cut_path = dir.File("cut.csr6");
  std::string token;
  {
    format::Csr6Writer cut(cut_path, lo, hi);
    for (std::size_t u = 0; u < 40; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    ASSERT_TRUE(cut.CommitState(&token).ok());
    for (std::size_t u = 40; u < 50; ++u) {
      cut.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    // The destructor of an unfinished resumable writer must close without
    // finalizing the header and must keep the degree sidecar on disk.
  }
  ASSERT_TRUE(std::filesystem::exists(format::Csr6Writer::SidecarPath(cut_path)));
  {
    format::Csr6Writer resumed(cut_path, lo, hi, core::ResumeFrom{token});
    for (std::size_t u = 40; u < scopes.size(); ++u) {
      resumed.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    resumed.Finish();
    ASSERT_TRUE(resumed.status().ok());
  }
  EXPECT_EQ(ReadFileBytes(cut_path), ReadFileBytes(ref_path));
}

// ---------------------------------------------------------------------------
// Zero-copy CSR6 reads.

TEST(MappedReaderTest, MatchesWrittenAdjacency) {
  storage::TempDir dir;
  auto scopes = TestScopes(200, 23);
  const VertexId lo = 100;
  const VertexId hi = lo + scopes.size();
  const std::string path = dir.File("g.csr6");
  {
    format::Csr6Writer writer(path, lo, hi);
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      writer.ConsumeScope(lo + i, scopes[i].data(), scopes[i].size());
    }
    writer.Finish();
    ASSERT_TRUE(writer.status().ok());
  }

  format::Csr6MappedReader mapped(path);
  ASSERT_TRUE(mapped.status().ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.lo(), lo);
  EXPECT_EQ(mapped.hi(), hi);

  // The writer stores each adjacency sorted; every access path must return
  // exactly that, and the bulk copy is their concatenation in vertex order.
  std::vector<VertexId> all_written;
  for (VertexId u = lo; u < hi; ++u) {
    std::vector<VertexId>& written = scopes[u - lo];
    std::sort(written.begin(), written.end());
    ASSERT_EQ(mapped.Degree(u), written.size()) << "vertex " << u;
    EXPECT_EQ(mapped.Neighbors(u), written) << "vertex " << u;
    for (std::size_t i = 0; i < written.size(); ++i) {
      EXPECT_EQ(mapped.NeighborAt(mapped.EdgeOffset(u) + i), written[i]);
    }
    all_written.insert(all_written.end(), written.begin(), written.end());
  }
  ASSERT_EQ(mapped.num_edges(), all_written.size());
  std::vector<VertexId> all_mapped(mapped.num_edges(), 0);
  mapped.CopyAllNeighbors(all_mapped.data());
  EXPECT_EQ(all_mapped, all_written);
}

TEST(MappedReaderTest, CorruptShardsReportStatusInsteadOfCrashing) {
  storage::TempDir dir;
  const auto scopes = TestScopes(8, 29);
  const std::string good = dir.File("good.csr6");
  {
    format::Csr6Writer writer(good, 0, scopes.size());
    for (std::size_t u = 0; u < scopes.size(); ++u) {
      writer.ConsumeScope(u, scopes[u].data(), scopes[u].size());
    }
    writer.Finish();
    ASSERT_TRUE(writer.status().ok());
  }
  const std::string bytes = ReadFileBytes(good);

  auto write_variant = [&](const std::string& name,
                           const std::string& content) {
    const std::string path = dir.File(name);
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.close();
    return path;
  };

  {
    format::Csr6MappedReader reader(dir.File("missing.csr6"));
    EXPECT_FALSE(reader.status().ok());
  }
  {
    format::Csr6MappedReader reader(
        write_variant("short.csr6", bytes.substr(0, 10)));
    EXPECT_NE(reader.status().ToString().find("shorter than its header"),
              std::string::npos);
  }
  {
    std::string corrupted = bytes;
    corrupted[0] = 'X';
    format::Csr6MappedReader reader(write_variant("magic.csr6", corrupted));
    EXPECT_NE(reader.status().ToString().find("bad CSR6 magic"),
              std::string::npos);
  }
  {
    format::Csr6MappedReader reader(
        write_variant("sized.csr6", bytes + "extra"));
    EXPECT_NE(reader.status().ToString().find("size mismatch"),
              std::string::npos);
  }
  {
    // Claim one more edge than the offset table accounts for, and pad the
    // file so the size equation still holds: only the offsets/edge-count
    // cross-check can catch it.
    std::string corrupted = bytes;
    std::uint64_t num_edges = 0;
    std::memcpy(&num_edges, corrupted.data() + 32, 8);
    ++num_edges;
    std::memcpy(corrupted.data() + 32, &num_edges, 8);
    corrupted.append(6, '\0');
    format::Csr6MappedReader reader(write_variant("count.csr6", corrupted));
    EXPECT_NE(reader.status().ToString().find("offsets/edge-count mismatch"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// TSV formatting and parsing.

TEST(TsvTest, FormatterMatchesSnprintfAcrossDecades) {
  storage::TempDir dir;
  const std::string path = dir.File("fmt.tsv");
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       9,
                                       10,
                                       99,
                                       100,
                                       999,
                                       1000,
                                       12345,
                                       (std::uint64_t{1} << 32) - 1,
                                       (std::uint64_t{1} << 47),
                                       (std::uint64_t{1} << 48) - 1,
                                       999999999999999999ULL,
                                       1000000000000000000ULL,
                                       9999999999999999999ULL,
                                       10000000000000000000ULL,
                                       ~std::uint64_t{0}};
  std::string expected;
  {
    format::TsvWriter writer(path);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::uint64_t src = values[i];
      const std::uint64_t dst = values[values.size() - 1 - i];
      writer.WriteEdge(src, dst);
      char line[64];
      std::snprintf(line, sizeof(line), "%" PRIu64 "\t%" PRIu64 "\n", src,
                    dst);
      expected += line;
    }
    writer.Finish();
    ASSERT_TRUE(writer.status().ok());
  }
  EXPECT_EQ(ReadFileBytes(path), expected);
}

TEST(TsvTest, ReaderNamesTheLineOfAMalformedField) {
  storage::TempDir dir;
  const std::string path = dir.File("bad.tsv");
  {
    std::ofstream out(path);
    out << "1\t2\nx\t3\n";
  }
  format::TsvReader reader(path);
  Edge edge;
  ASSERT_TRUE(reader.Next(&edge));
  EXPECT_EQ(edge, (Edge{1, 2}));
  EXPECT_FALSE(reader.Next(&edge));
  EXPECT_EQ(reader.line(), 2u);
  const std::string message = reader.status().ToString();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("expected a decimal vertex id, got 'x'"),
            std::string::npos)
      << message;
  EXPECT_FALSE(reader.Next(&edge));  // errors are sticky
}

TEST(TsvTest, ReaderRejectsUnpairedValueAtEof) {
  storage::TempDir dir;
  const std::string path = dir.File("odd.tsv");
  {
    std::ofstream out(path);
    out << "1\t2\n7";
  }
  format::TsvReader reader(path);
  Edge edge;
  ASSERT_TRUE(reader.Next(&edge));
  EXPECT_FALSE(reader.Next(&edge));
  EXPECT_NE(reader.status().ToString().find("file ends after an unpaired"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(TsvTest, ReaderRejectsIdsThatOverflowSixBytes) {
  storage::TempDir dir;
  const std::string path = dir.File("wide.tsv");
  {
    std::ofstream out(path);
    // 2^48 exactly: one too many for the 6-byte formats downstream.
    out << "281474976710656\t1\n";
  }
  format::TsvReader reader(path);
  Edge edge;
  EXPECT_FALSE(reader.Next(&edge));
  EXPECT_NE(reader.status().ToString().find("does not fit in 6 bytes"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(TsvTest, TinyReadBufferCrossesValueBoundaries) {
  storage::TempDir dir;
  const std::string path = dir.File("tiny.tsv");
  std::vector<Edge> expected;
  {
    format::TsvWriter writer(path);
    std::uint64_t state = 5;
    for (int i = 0; i < 300; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const Edge edge{state % (std::uint64_t{1} << 48),
                      (state >> 8) % (std::uint64_t{1} << 48)};
      writer.WriteEdge(edge.src, edge.dst);
      expected.push_back(edge);
    }
    writer.Finish();
    ASSERT_TRUE(writer.status().ok());
  }
  // A 3-byte block size forces every multi-digit value to straddle refills.
  format::TsvReader reader(path, 3);
  std::vector<Edge> got;
  Edge edge;
  while (reader.Next(&edge)) got.push_back(edge);
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Handoff stress (meant to run under TSan: .github/workflows/ci.yml).

TEST(HandoffStressTest, ConcurrentWritersRecycleBuffersSafely) {
  storage::TempDir dir;
  constexpr int kThreads = 4;
  std::vector<std::string> expected(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::string& content = expected[t];
    std::uint64_t state = 1000 + t;
    for (int i = 0; i < 4000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      content.append(1 + state % 17, static_cast<char>('A' + t));
    }
    threads.emplace_back([&dir, t, &content] {
      // A 64-byte buffer makes the producer hand off (and stall on the
      // kQueueDepth limit) thousands of times.
      storage::AsyncFileWriter writer(64);
      ASSERT_TRUE(writer.Open(dir.File("t" + std::to_string(t))).ok());
      std::size_t pos = 0;
      std::uint64_t state = 7777 + t;
      while (pos < content.size()) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t n =
            std::min(content.size() - pos, std::size_t(1 + state % 23));
        writer.Append(content.data() + pos, n);
        pos += n;
      }
      ASSERT_TRUE(writer.Close().ok());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ReadFileBytes(dir.File("t" + std::to_string(t))), expected[t])
        << "thread " << t;
  }
}

}  // namespace
}  // namespace tg
