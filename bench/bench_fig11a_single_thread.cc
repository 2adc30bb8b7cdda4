// Figure 11(a): performance of single-threaded methods — RMAT-mem,
// RMAT-disk, FastKronecker, TrillionG/seq — across graph scales, under a
// fixed per-process memory budget (the stand-in for the paper's 32 GB
// machines; scaled down with the scales, see DESIGN.md).
// Expected shape: TrillionG/seq is fastest at every scale by a wide margin;
// RMAT-mem and FastKronecker hit O.O.M at the largest scales because their
// dedup set is O(|E|); RMAT-disk survives but is far slower than TrillionG.

#include <cstdio>
#include <vector>

#include "baseline/kronecker.h"
#include "baseline/rmat.h"
#include "bench_util.h"
#include "core/scope_sink.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "storage/temp_dir.h"
#include "util/stopwatch.h"

namespace {

// Paper: scales 20-28 with 32 GB. Here: scales 14-19 with a 96 MiB budget,
// which puts the O(|E|) methods' O.O.M crossover inside the sweep exactly
// like the paper's Figure 11(a).
constexpr int kMinScale = 14;
constexpr int kMaxScale = 19;
constexpr std::uint64_t kDefaultBudgetBytes = 96ULL << 20;

}  // namespace

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_fig11a"));
  const std::uint64_t kBudgetBytes =
      tg::bench::BudgetBytesFromEnv(kDefaultBudgetBytes);
  tg::bench::Banner(
      "Figure 11(a): single-threaded methods, scales 14-19, 96 MiB budget",
      "Park & Kim, SIGMOD'17, Figure 11(a)",
      "TrillionG/seq fastest everywhere; RMAT-mem/FastKronecker O.O.M at "
      "the top scales; RMAT-disk slowest but survives");

  tg::storage::TempDir temp_dir("fig11a");

  std::printf("\n%-8s %14s %14s %14s %16s %16s\n", "scale", "RMAT-mem",
              "RMAT-disk", "FastKronecker", "TrillionG/seq", "TG gen-only");
  for (int scale = kMinScale; scale <= kMaxScale; ++scale) {
    const std::uint64_t num_edges = 16ULL << scale;
    std::printf("%-8d", scale);

    {
      tg::MemoryBudget budget(kBudgetBytes);
      tg::baseline::RmatOptions options;
      options.scale = scale;
      options.budget = &budget;
      std::printf(" %14s", tg::bench::TimeOrOom([&] {
                    tg::baseline::RmatMem(options, [](const tg::Edge&) {});
                  }).c_str());
      std::fflush(stdout);
    }
    {
      tg::MemoryBudget budget(kBudgetBytes);
      tg::baseline::RmatDiskOptions options;
      options.scale = scale;
      options.budget = &budget;
      options.temp_dir = temp_dir.path();
      options.sort_buffer_items = 1 << 20;
      std::printf(" %14s", tg::bench::TimeOrOom([&] {
                    tg::baseline::RmatDisk(options, [](const tg::Edge&) {});
                  }).c_str());
      std::fflush(stdout);
    }
    {
      tg::MemoryBudget budget(kBudgetBytes);
      tg::baseline::FastKroneckerOptions options;
      options.num_vertices = tg::VertexId{1} << scale;
      options.num_edges = num_edges;
      options.budget = &budget;
      std::printf(" %14s", tg::bench::TimeOrOom([&] {
                    tg::baseline::FastKronecker(options,
                                                [](const tg::Edge&) {});
                  }).c_str());
      std::fflush(stdout);
    }
    {
      tg::MemoryBudget budget(kBudgetBytes);
      tg::core::TrillionGConfig config;
      config.scale = scale;
      config.edge_factor = 16;
      config.num_workers = 1;
      config.budget = &budget;
      std::printf(" %16s", tg::bench::TimeOrOom([&] {
                    // Like the paper, TrillionG writes the real output file
                    // (ADJ6) and still wins.
                    tg::format::Adj6Writer sink(temp_dir.File(
                        "tg_scale" + std::to_string(scale) + ".adj6"));
                    tg::core::GenerateToSink(config, &sink);
                    sink.Finish();
                  }).c_str());
    }
    {
      // Pure generation cost (no output formatting): the table-kernel
      // headline number, reported as edges/second so before/after runs are
      // directly comparable (docs/PERFORMANCE.md records the history).
      tg::MemoryBudget budget(kBudgetBytes);
      tg::core::TrillionGConfig config;
      config.scale = scale;
      config.edge_factor = 16;
      config.num_workers = 1;
      config.budget = &budget;
      tg::core::CountingSink sink;
      tg::Stopwatch watch;
      tg::core::GenerateStats stats = tg::core::GenerateToSink(config, &sink);
      const double secs = watch.ElapsedSeconds();
      std::printf(" %13.1f M/s",
                  static_cast<double>(stats.num_edges) / secs / 1e6);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf(
      "\nNote: RMAT baselines discard edges (pure generation+dedup cost); "
      "TrillionG additionally wrote ADJ6 output.\n");
  tg::bench::PrintLastOom();
  return 0;
}
