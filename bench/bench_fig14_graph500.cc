// Figure 14 / Appendix D: TrillionG vs the Graph500 benchmark generator.
// (a) elapsed time across scales under 1 GbE and InfiniBand EDR network
// models; (b) the ratio of construction time (shuffle + merge + CSR
// conversion) to total time.
// Expected shape: TrillionG's elapsed time is identical under both networks
// (it never shuffles) and beats Graph500; Graph500's construction overhead
// ratio is large on 1 GbE and is the bulk of its cost, while TrillionG's
// construction overhead stays in the single-digit percents.

#include <cstdio>

#include "baseline/graph500.h"
#include "bench_util.h"
#include "cluster/sim_cluster.h"
#include "core/trilliong.h"
#include "format/csr6.h"
#include "storage/temp_dir.h"
#include "util/stopwatch.h"

namespace {

constexpr int kMachines = 4;
constexpr int kMinScale = 15;
constexpr int kMaxScale = 19;

struct Row {
  std::string tg_1g, tg_ib, g500_1g, g500_ib;
  double tg_construct_ratio = 0;
  double g500_1g_ratio = 0;
  double g500_ib_ratio = 0;
};

}  // namespace

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_fig14"));
  tg::bench::Banner(
      "Figure 14: TrillionG (NSKG, CSR6) vs Graph500-style, 1 GbE vs "
      "InfiniBand",
      "Park & Kim, SIGMOD'17, Figure 14 / Appendix D",
      "(a) TrillionG-1G == TrillionG-IB and fastest; (b) Graph500-1G "
      "construction ratio >> TrillionG's ~6-7%");

  tg::storage::TempDir temp_dir("fig14");

  std::printf("\n(a) elapsed seconds (wall + simulated network)\n");
  std::printf("%-7s %14s %14s %14s %14s\n", "scale", "TrillionG-1G",
              "TrillionG-IB", "Graph500-1G", "Graph500-IB");

  std::vector<Row> rows;
  for (int scale = kMinScale; scale <= kMaxScale; ++scale) {
    Row row;

    // TrillionG: NSKG N=0.1, CSR6 shards, no shuffle -> identical on both
    // networks; run once, report twice (exactly the paper's observation).
    // Simulated cluster seconds = partition + prefix-table build + max
    // per-worker CPU (ClusterGenerateStats::TotalSeconds's sum); the
    // "construction" share is the CSR conversion cost, measured as the
    // delta against a counting-sink run.
    {
      tg::core::TrillionGConfig config;
      config.scale = scale;
      config.edge_factor = 16;
      config.noise = 0.1;
      config.num_workers = kMachines;

      tg::core::GenerateStats gen_only = tg::core::Generate(
          config,
          [&](int, tg::VertexId, tg::VertexId)
              -> std::unique_ptr<tg::core::ScopeSink> {
            return std::make_unique<tg::core::CountingSink>();
          });
      double tg_generate = gen_only.partition_seconds +
                           gen_only.max_table_build_seconds +
                           gen_only.max_worker_cpu_seconds;

      tg::core::GenerateStats with_csr = tg::core::Generate(
          config,
          [&](int worker, tg::VertexId lo, tg::VertexId hi)
              -> std::unique_ptr<tg::core::ScopeSink> {
            return std::make_unique<tg::format::Csr6Writer>(
                temp_dir.File("tg_s" + std::to_string(scale) + "_w" +
                              std::to_string(worker) + ".csr6"),
                lo, hi);
          });
      double tg_total = with_csr.partition_seconds +
                        with_csr.max_table_build_seconds +
                        with_csr.max_worker_cpu_seconds;
      double tg_construct = std::max(tg_total - tg_generate, 0.0);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", tg_total);
      row.tg_1g = row.tg_ib = buf;
      row.tg_construct_ratio = tg_construct / tg_total;
    }

    for (bool infiniband : {false, true}) {
      tg::cluster::SimCluster cluster(
          {kMachines, 1, 0,
           infiniband ? tg::cluster::NetworkModel::InfinibandEdr()
                      : tg::cluster::NetworkModel::OneGigabitEthernet()});
      tg::baseline::Graph500Options options;
      options.scale = scale;
      options.edge_factor = 16;
      tg::baseline::Graph500Stats stats =
          tg::baseline::RunGraph500(&cluster, options);
      double total = stats.generation_seconds + stats.construction_seconds;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", total);
      (infiniband ? row.g500_ib : row.g500_1g) = buf;
      double ratio = stats.construction_seconds / total;
      (infiniband ? row.g500_ib_ratio : row.g500_1g_ratio) = ratio;
    }

    std::printf("%-7d %14s %14s %14s %14s\n", scale, row.tg_1g.c_str(),
                row.tg_ib.c_str(), row.g500_1g.c_str(), row.g500_ib.c_str());
    std::fflush(stdout);
    rows.push_back(row);
  }

  std::printf("\n(b) construction overhead ratio (%% of total time)\n");
  std::printf("%-7s %14s %14s %14s\n", "scale", "TrillionG", "Graph500-1G",
              "Graph500-IB");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-7d %13.1f%% %13.1f%% %13.1f%%\n",
                kMinScale + static_cast<int>(i),
                100 * rows[i].tg_construct_ratio,
                100 * rows[i].g500_1g_ratio, 100 * rows[i].g500_ib_ratio);
  }
  std::printf(
      "\nverdict: TrillionG's ratio stays low and network-independent; "
      "Graph500's 1 GbE ratio is by far the largest (paper: >90%% at scale "
      "29 with the fast C kernel; our kernel is slower so the ratio is "
      "smaller but the ordering holds).\n");
  return 0;
}
