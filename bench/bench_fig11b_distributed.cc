// Figure 11(b): performance of distributed methods — RMAT/p-mem,
// RMAT/p-disk, TrillionG (TSV), TrillionG (ADJ6) — on the simulated cluster
// across scales, with a per-machine memory budget.
// Expected shape: TrillionG (ADJ6) < TrillionG (TSV) << RMAT/p-disk at every
// scale, with the gap growing with scale; RMAT/p-mem hits O.O.M first (its
// partitions are O(|E|/P) *plus* skew on machine 0).

#include <cstdio>

#include "baseline/wesp.h"
#include "bench_util.h"
#include "cluster/sim_cluster.h"
#include "cluster/trilliong_cluster.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/tsv.h"
#include "storage/temp_dir.h"
#include "util/stopwatch.h"

namespace {

// Paper: 10 machines x 6 threads, 32 GB each, scales 24-31. Here: 4
// simulated machines x 1 thread (single-core host), 48 MiB budget, scales
// 15-19.
constexpr int kMachines = 4;
constexpr int kThreads = 1;
constexpr std::uint64_t kDefaultBudgetBytes = 48ULL << 20;
constexpr int kMinScale = 15;
constexpr int kMaxScale = 19;

tg::cluster::SimCluster::Options ClusterOptions() {
  return {kMachines, kThreads,
          tg::bench::BudgetBytesFromEnv(kDefaultBudgetBytes),
          tg::cluster::NetworkModel::OneGigabitEthernet()};
}

}  // namespace

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_fig11b"));
  tg::bench::Banner(
      "Figure 11(b): distributed methods, 4 machines, scales 15-19, "
      "48 MiB/machine",
      "Park & Kim, SIGMOD'17, Figure 11(b)",
      "TrillionG(ADJ6) < TrillionG(TSV) << RMAT/p-disk; RMAT/p-mem O.O.M "
      "first; gap grows with scale");

  tg::storage::TempDir temp_dir("fig11b");

  std::printf(
      "\n%-7s %12s %12s %14s %14s   (simulated cluster seconds: max "
      "per-worker CPU + wire)\n",
      "scale", "RMAT/p-mem", "RMAT/p-disk", "TrillionG-TSV",
      "TrillionG-ADJ6");

  for (int scale = kMinScale; scale <= kMaxScale; ++scale) {
    std::printf("%-7d", scale);

    // RMAT/p variants: elapsed = generate + shuffle + merge (each the max
    // per-worker time, shuffle including simulated 1 GbE wire time).
    for (bool disk : {false, true}) {
      std::string cell;
      try {
        tg::cluster::SimCluster cluster(ClusterOptions());
        tg::baseline::WespOptions options;
        options.scale = scale;
        options.disk = disk;
        options.temp_dir = temp_dir.path();
        options.sort_buffer_items = 1 << 20;
        tg::baseline::WespStats stats =
            tg::baseline::RunWesp(&cluster, options);
        double elapsed = stats.generate_seconds + stats.shuffle_seconds +
                         stats.merge_seconds;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", elapsed);
        cell = buf;
      } catch (const tg::OomError& e) {
        tg::obs::RecordOom(e.report());
        cell = "O.O.M";
      }
      std::printf(" %12s", cell.c_str());
      std::fflush(stdout);
    }

    // TrillionG: full Figure 6 protocol on the same simulated cluster —
    // combine/gather/repartition/scatter + generation, no edge shuffle.
    for (bool adj6 : {false, true}) {
      std::string cell;
      try {
        tg::cluster::SimCluster cluster(ClusterOptions());
        tg::core::TrillionGConfig config;
        config.scale = scale;
        config.edge_factor = 16;
        tg::cluster::ClusterGenerateStats stats =
            tg::cluster::GenerateOnCluster(
                &cluster, config,
                [&](int worker, tg::VertexId lo,
                    tg::VertexId hi) -> std::unique_ptr<tg::core::ScopeSink> {
                  std::string base = temp_dir.File(
                      "tg_s" + std::to_string(scale) + "_w" +
                      std::to_string(worker));
                  if (adj6) {
                    return std::make_unique<tg::format::Adj6Writer>(base +
                                                                    ".adj6");
                  }
                  (void)lo;
                  (void)hi;
                  return std::make_unique<tg::format::TsvWriter>(base +
                                                                 ".tsv");
                });
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", stats.TotalSeconds());
        cell = buf;
      } catch (const tg::OomError& e) {
        tg::obs::RecordOom(e.report());
        cell = "O.O.M";
      }
      std::printf(" %14s", cell.c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf(
      "\nNote: RMAT/p columns include simulated 1 GbE shuffle time; "
      "TrillionG is shuffle-free by construction (AVS partitioning).\n");
  tg::bench::PrintLastOom();
  return 0;
}
