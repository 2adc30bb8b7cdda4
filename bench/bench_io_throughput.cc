// Writer micro-benchmark behind the I/O fast path (docs/PERFORMANCE.md,
// "The I/O path"). Three measurements:
//   1. transport: the same byte stream through the sync stdio writer and the
//      double-buffered async writer. The overlap win needs >= 2 cores —
//      producer and writer thread timeshare one CPU otherwise, so the table
//      prints the core count alongside.
//   2. TSV writer: branchless two-digits-at-a-time formatting vs the legacy
//      per-digit divide loop it replaced. Expected >= 1.5x on any host —
//      this leg carries the writer-throughput acceptance bar.
//   3. TSV reader: block parser vs the legacy per-edge fscanf.
// All transports hand identical byte/flush counts to the io.* counters, so
// the BENCH_io.json baseline gates them exactly.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "format/tsv.h"
#include "storage/async_writer.h"
#include "storage/file_io.h"
#include "storage/temp_dir.h"
#include "util/common.h"
#include "util/stopwatch.h"

namespace {

constexpr std::size_t kChunkBytes = 64 << 10;
constexpr std::size_t kTotalBytes = 96ULL << 20;
constexpr int kRepetitions = 3;  // best-of to shed scheduler noise
constexpr std::uint64_t kTsvEdges = 2000000;

/// Streams kTotalBytes of 64 KiB appends through `config`'s transport and
/// returns the best MiB/s over kRepetitions (Open through Close, so the
/// async drain is inside the clock).
double WriterThroughput(const tg::storage::IoConfig& config,
                        const std::string& path) {
  std::vector<char> chunk(kChunkBytes);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<char>('a' + i % 26);
  }
  double best_seconds = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto writer = tg::storage::MakeFileWriter(1 << 20, config);
    tg::Stopwatch watch;
    TG_CHECK(writer->Open(path).ok());
    for (std::size_t written = 0; written < kTotalBytes;
         written += kChunkBytes) {
      writer->Append(chunk.data(), chunk.size());
    }
    TG_CHECK(writer->Close().ok());
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(kTotalBytes) / best_seconds / (1 << 20);
}

/// The formatter this PR replaced: one divide per digit plus a reverse,
/// fed to the synchronous stdio writer. Kept here as the bench's
/// before/after reference.
int LegacyFormatU64(std::uint64_t value, char* buf) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (int i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

double LegacyTsvWriteSeconds(const std::string& path, std::uint64_t seed) {
  std::uint64_t state = seed;
  tg::Stopwatch watch;
  tg::storage::FileWriter writer;
  TG_CHECK(writer.Open(path).ok());
  for (std::uint64_t i = 0; i < kTsvEdges; ++i) {
    char line[44];
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    int n = LegacyFormatU64((state >> 8) % (std::uint64_t{1} << 48), line);
    line[n++] = '\t';
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    n += LegacyFormatU64((state >> 8) % (std::uint64_t{1} << 48), line + n);
    line[n++] = '\n';
    writer.Append(line, n);
  }
  TG_CHECK(writer.Close().ok());
  return watch.ElapsedSeconds();
}

double LegacyTsvParseSeconds(const std::string& path, std::uint64_t expect) {
  tg::Stopwatch watch;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  TG_CHECK(file != nullptr);
  std::uint64_t parsed = 0, src, dst;
  while (std::fscanf(file, "%" SCNu64 " %" SCNu64, &src, &dst) == 2) ++parsed;
  std::fclose(file);
  TG_CHECK(parsed == expect);
  return watch.ElapsedSeconds();
}

}  // namespace

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_io_throughput"));
  tg::bench::Banner(
      "I/O throughput: writer transports and the TSV fast path",
      "wall-clock substrate of Figures 11/14 (docs/PERFORMANCE.md, "
      "\"The I/O path\")",
      "TSV writer >= 1.5x the legacy per-digit path; async overlap wins "
      "need >= 2 cores; identical io.* counters on every transport");

  tg::storage::TempDir temp_dir("bench_io");
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\ncores: %u%s\n", cores,
              cores < 2 ? "  (async transport cannot overlap: producer and "
                          "writer thread timeshare one CPU)"
                        : "");
  std::printf("streaming %s in %s appends, best of %d runs\n\n",
              tg::bench::HumanBytes(kTotalBytes).c_str(),
              tg::bench::HumanBytes(kChunkBytes).c_str(), kRepetitions);

  double sync_mibps = 0.0;
  double async_mibps = 0.0;
  std::printf("%-15s %12s\n", "transport", "MiB/s");
  for (const tg::storage::IoMode mode :
       {tg::storage::IoMode::kSync, tg::storage::IoMode::kAsync}) {
    const tg::storage::IoConfig config{mode};
    const double mibps = WriterThroughput(config, temp_dir.File("stream.bin"));
    std::printf("%-15s %12.0f\n", tg::storage::IoSpecString(config).c_str(),
                mibps);
    if (mode == tg::storage::IoMode::kSync) {
      sync_mibps = mibps;
    } else {
      async_mibps = mibps;
    }
  }
  std::printf("\nasync/sync speedup: %.2fx\n", async_mibps / sync_mibps);

  // The TSV fast path: branchless two-digits-at-a-time formatting on the way
  // out, block parsing (no per-edge fscanf) on the way back in. Both write
  // legs are pinned to the sync transport so the delta isolates the
  // formatter; the transport table above is the async story.
  const std::string tsv_path = temp_dir.File("edges.tsv");
  std::uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 8) % (std::uint64_t{1} << 48);
  };
  tg::storage::ScopedIoConfig sync_io({tg::storage::IoMode::kSync});
  tg::Stopwatch format_watch;
  {
    tg::format::TsvWriter writer(tsv_path);
    for (std::uint64_t i = 0; i < kTsvEdges; ++i) {
      const tg::VertexId src = next();
      writer.WriteEdge(src, next());
    }
    writer.Finish();
    TG_CHECK(writer.status().ok());
  }
  const double format_seconds = format_watch.ElapsedSeconds();

  tg::Stopwatch parse_watch;
  std::uint64_t parsed = 0;
  {
    tg::format::TsvReader reader(tsv_path);
    tg::Edge edge;
    while (reader.Next(&edge)) ++parsed;
    TG_CHECK(reader.status().ok());
  }
  const double parse_seconds = parse_watch.ElapsedSeconds();
  TG_CHECK(parsed == kTsvEdges);

  // Before/after: the per-digit formatter + per-edge fscanf this PR removed,
  // over the same edge stream.
  const double legacy_format_seconds =
      LegacyTsvWriteSeconds(temp_dir.File("legacy.tsv"), 42);
  const double legacy_parse_seconds =
      LegacyTsvParseSeconds(tsv_path, kTsvEdges);

  std::printf("\n%-28s %12s %12s\n", "TSV path (2M edges)", "Kedges/s",
              "speedup");
  std::printf("%-28s %12.0f\n", "write, legacy per-digit",
              kTsvEdges / legacy_format_seconds / 1e3);
  std::printf("%-28s %12.0f %11.2fx\n", "write, branchless pairs",
              kTsvEdges / format_seconds / 1e3,
              legacy_format_seconds / format_seconds);
  std::printf("%-28s %12.0f\n", "parse, legacy fscanf",
              kTsvEdges / legacy_parse_seconds / 1e3);
  std::printf("%-28s %12.0f %11.2fx\n", "parse, block reader",
              kTsvEdges / parse_seconds / 1e3,
              legacy_parse_seconds / parse_seconds);
  tg::bench::PrintLastOom();
  return 0;
}
