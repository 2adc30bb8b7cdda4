// Figure 13: breakdown of the three key performance ideas of the recursive
// vector model (Section 4.3) — all eight on/off combinations at one scale.
//   Idea#1: reuse the precomputed RecVec per scope
//   Idea#2: reduce recursions (binary-search bit skipping)
//   Idea#3: reduce random value generations (CDF translation)
// Expected shape: Idea#1 is the dominant win (the paper reports >= 3.38x
// alone); with Idea#1 on, Ideas #2 and #3 compound to another ~2x+.

#include <cstdio>

#include "bench_util.h"
#include "core/trilliong.h"
#include "util/stopwatch.h"

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_fig13"));
  tg::bench::Banner(
      "Figure 13: breakdown of Ideas #1/#2/#3 (Scale 20)",
      "Park & Kim, SIGMOD'17, Figure 13",
      "Idea#1 dominates; #2 and #3 compound once #1 is on");

  constexpr int kScale = 20;
  std::printf("\n%-8s %-8s %-8s %12s %14s\n", "Idea#1", "Idea#2", "Idea#3",
              "seconds", "Medges/sec");

  double baseline_seconds = 0, full_seconds = 0, idea1_only_seconds = 0;
  for (int mask = 0; mask < 8; ++mask) {
    bool idea1 = (mask & 4) != 0;
    bool idea2 = (mask & 2) != 0;
    bool idea3 = (mask & 1) != 0;

    tg::core::TrillionGConfig config;
    config.scale = kScale;
    config.edge_factor = 16;
    config.num_workers = 1;
    config.determiner = {idea1, idea2, idea3};
    // The 8-combination sweep measures the paper's descent kernel; the
    // table kernel (which subsumes all three ideas) gets its own row below.
    config.determiner.use_prefix_tables = false;

    tg::core::CountingSink sink;
    tg::Stopwatch watch;
    tg::core::GenerateStats stats = tg::core::GenerateToSink(config, &sink);
    double seconds = watch.ElapsedSeconds();

    std::printf("%-8s %-8s %-8s %12.3f %14.2f\n", idea1 ? "O" : "X",
                idea2 ? "O" : "X", idea3 ? "O" : "X", seconds,
                stats.num_edges / seconds / 1e6);
    std::fflush(stdout);

    if (mask == 0) baseline_seconds = seconds;
    if (mask == 4) idea1_only_seconds = seconds;
    if (mask == 7) full_seconds = seconds;
  }

  // Beyond the paper: the prefix-table kernel (core/prefix_tables.h)
  // replaces the per-edge descent entirely — shared per-generator tables,
  // batched lane-RNG deviates, no per-scope RecVec at all.
  double table_seconds = 0;
  {
    tg::core::TrillionGConfig config;
    config.scale = kScale;
    config.edge_factor = 16;
    config.num_workers = 1;

    tg::core::CountingSink sink;
    tg::Stopwatch watch;
    tg::core::GenerateStats stats = tg::core::GenerateToSink(config, &sink);
    table_seconds = watch.ElapsedSeconds();
    std::printf("%-26s %12.3f %14.2f\n", "table kernel (default)",
                table_seconds, stats.num_edges / table_seconds / 1e6);
  }

  std::printf(
      "\nspeedups: Idea#1 alone %.2fx (paper: >= 3.38x); all three vs none "
      "%.2fx; Ideas #2+#3 on top of #1: %.2fx (paper: 2.47x); table kernel "
      "vs descent %.2fx\n",
      baseline_seconds / idea1_only_seconds,
      baseline_seconds / full_seconds, idea1_only_seconds / full_seconds,
      full_seconds / table_seconds);
  return 0;
}
