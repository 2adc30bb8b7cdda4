// Tests for obs/report_diff.h: the comparison engine behind
// tools/bench_check. Identical reports must pass, an injected 2× regression
// must fail, missing metrics count as regressions, and the tolerance /
// skip-list machinery must behave as documented.
#include <gtest/gtest.h>

#include <string>

#include "obs/report_diff.h"
#include "obs/run_report.h"

namespace tg::obs {
namespace {

// A representative bench report: deterministic counters, one simulated
// gauge with a built-in tolerance rule, one real-clock gauge that the
// defaults must skip, and a histogram.
RunReport MakeBaseline() {
  RunReport report;
  report.counters["avs.edges_generated"] = 1048576;
  report.counters["cluster.shuffled_bytes"] = 65536;
  report.gauges["net.simulated_seconds"] = 1.25;
  report.gauges["span.wall_seconds"] = 0.731;  // real clock: never compared
  HistogramSnapshot hist;
  hist.count = 100;
  hist.sum = 5000;
  hist.min = 1;
  hist.max = 200;
  hist.buckets = {0, 10, 20, 30, 40};
  report.histograms["avs.scope_edges"] = hist;
  return report;
}

TEST(ReportDiffTest, IdenticalReportsPass) {
  RunReport baseline = MakeBaseline();
  DiffResult result =
      DiffReports(baseline, baseline, DiffOptions::Defaults());
  EXPECT_TRUE(result.ok()) << result.ToString(true);
  EXPECT_EQ(result.num_regressed, 0);
  // Two counters + the simulated gauge + histogram count/sum are checked;
  // the real-clock gauge is not.
  EXPECT_EQ(result.num_checked, 5);
}

TEST(ReportDiffTest, InjectedTwoTimesRegressionFails) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters["cluster.shuffled_bytes"] *= 2;
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.num_regressed, 1);
  bool found = false;
  for (const MetricDelta& delta : result.deltas) {
    if (delta.name != "cluster.shuffled_bytes") continue;
    found = true;
    EXPECT_TRUE(delta.regressed);
    EXPECT_FALSE(delta.missing);
    EXPECT_DOUBLE_EQ(delta.baseline, 65536.0);
    EXPECT_DOUBLE_EQ(delta.current, 131072.0);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(result.ToString(false).find("FAIL"), std::string::npos);
}

TEST(ReportDiffTest, MissingMetricIsARegression) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters.erase("avs.edges_generated");
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_FALSE(result.ok());
  bool found = false;
  for (const MetricDelta& delta : result.deltas) {
    if (delta.name != "avs.edges_generated") continue;
    found = true;
    EXPECT_TRUE(delta.missing);
    EXPECT_TRUE(delta.regressed);
  }
  EXPECT_TRUE(found);
}

TEST(ReportDiffTest, ExtraMetricsInCurrentAreIgnored) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters["brand.new_counter"] = 999;
  current.gauges["brand.new_gauge"] = 3.14;
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_TRUE(result.ok()) << result.ToString(true);
}

TEST(ReportDiffTest, ToleranceAllowsBoundedDrift) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters["cluster.shuffled_bytes"] = 68000;  // ~3.8% up
  DiffOptions options = DiffOptions::Defaults();
  options.tolerances["cluster.shuffled_bytes"] = 0.05;
  EXPECT_TRUE(DiffReports(baseline, current, options).ok());
  options.tolerances["cluster.shuffled_bytes"] = 0.01;
  EXPECT_FALSE(DiffReports(baseline, current, options).ok());
}

TEST(ReportDiffTest, NegativeToleranceSkipsTheMetric) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters["cluster.shuffled_bytes"] *= 10;
  DiffOptions options = DiffOptions::Defaults();
  options.tolerances["cluster.shuffled_bytes"] = -1.0;
  DiffResult result = DiffReports(baseline, current, options);
  EXPECT_TRUE(result.ok()) << result.ToString(true);
}

TEST(ReportDiffTest, SkipListExcludesMetrics) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.counters["cluster.shuffled_bytes"] *= 2;
  DiffOptions options = DiffOptions::Defaults();
  options.skip.push_back("cluster.shuffled_bytes");
  EXPECT_TRUE(DiffReports(baseline, current, options).ok());
}

TEST(ReportDiffTest, RealClockGaugesAreSkippedByDefault) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.gauges["span.wall_seconds"] = 99.0;  // wildly different wall time
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_TRUE(result.ok()) << result.ToString(true);
  // ...unless a default gauge tolerance opts them in.
  DiffOptions options = DiffOptions::Defaults();
  options.default_gauge_rel_tol = 0.1;
  EXPECT_FALSE(DiffReports(baseline, current, options).ok());
}

TEST(ReportDiffTest, PerTagPeakGaugesGateViaPrefixRule) {
  RunReport baseline = MakeBaseline();
  baseline.gauges["mem.tag.core.scope_dedup.peak_bytes"] = 1000000.0;
  RunReport current = baseline;

  // Within the 0.5 relative prefix tolerance: passes.
  current.gauges["mem.tag.core.scope_dedup.peak_bytes"] = 1400000.0;
  EXPECT_TRUE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());

  // A tag's peak doubling is a memory regression.
  current.gauges["mem.tag.core.scope_dedup.peak_bytes"] = 2000001.0;
  EXPECT_FALSE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());

  // A tag vanishing (the bench stopped attributing it) is a regression too.
  current.gauges.erase("mem.tag.core.scope_dedup.peak_bytes");
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_FALSE(result.ok());

  // An explicit per-name tolerance still outranks the prefix rule.
  current = baseline;
  current.gauges["mem.tag.core.scope_dedup.peak_bytes"] = 4000000.0;
  DiffOptions options = DiffOptions::Defaults();
  options.tolerances["mem.tag.core.scope_dedup.peak_bytes"] = 10.0;
  EXPECT_TRUE(DiffReports(baseline, current, options).ok());
}

TEST(ReportDiffTest, StealCountsAreSkippedByDefault) {
  RunReport baseline = MakeBaseline();
  baseline.counters["sched.steals"] = 24;
  RunReport current = baseline;
  current.counters["sched.steals"] = 25;  // thread-timing, not a regression
  EXPECT_TRUE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());
}

TEST(ReportDiffTest, ParkedPeakIsSkippedByDefault) {
  // The prefix rule would gate a mem.tag.* peak at 0.5; parked bytes follow
  // the steals, so a no-steal baseline must not fail a run that stole.
  RunReport baseline = MakeBaseline();
  baseline.gauges["mem.tag.sched.parked.peak_bytes"] = 0.0;
  RunReport current = baseline;
  current.gauges["mem.tag.sched.parked.peak_bytes"] = 983040.0;
  EXPECT_TRUE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());
  current.gauges.erase("mem.tag.sched.parked.peak_bytes");
  EXPECT_TRUE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());
}

TEST(ReportDiffTest, SimulatedGaugeUsesBuiltInTolerance) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  // net.simulated_seconds is deterministic; the built-in rule is 1e-6
  // relative — a float-noise-sized wiggle passes, a real change fails.
  current.gauges["net.simulated_seconds"] = 1.25 * (1.0 + 1e-8);
  EXPECT_TRUE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());
  current.gauges["net.simulated_seconds"] = 1.30;
  EXPECT_FALSE(DiffReports(baseline, current, DiffOptions::Defaults()).ok());
}

TEST(ReportDiffTest, HistogramCountAndSumAreCompared) {
  RunReport baseline = MakeBaseline();
  RunReport current = baseline;
  current.histograms["avs.scope_edges"].count = 150;
  DiffResult result = DiffReports(baseline, current, DiffOptions::Defaults());
  EXPECT_FALSE(result.ok());
  bool found = false;
  for (const MetricDelta& delta : result.deltas) {
    if (delta.name == "histogram/avs.scope_edges/count") {
      found = true;
      EXPECT_TRUE(delta.regressed);
    }
  }
  EXPECT_TRUE(found);

  DiffOptions options = DiffOptions::Defaults();
  options.check_histograms = false;
  EXPECT_TRUE(DiffReports(baseline, current, options).ok());
}

TEST(ReportDiffTest, VerboseListingNamesEveryCheckedMetric) {
  RunReport baseline = MakeBaseline();
  DiffResult result =
      DiffReports(baseline, baseline, DiffOptions::Defaults());
  std::string verbose = result.ToString(true);
  EXPECT_NE(verbose.find("avs.edges_generated"), std::string::npos);
  EXPECT_NE(verbose.find("net.simulated_seconds"), std::string::npos);
  EXPECT_EQ(result.ToString(false).find("FAIL"), std::string::npos);
}

// What bench_check --update writes: a report with a profile path, profiler
// frames, a sampler series and spans keeps only the sections the diff
// reads, survives a JSON round trip, and still matches its source.
TEST(ReportDiffTest, GatedPartKeepsOnlyWhatTheDiffReads) {
  RunReport report = MakeBaseline();
  report.meta["tool"] = "bench_fig11b";
  report.meta["profile"] = "/tmp/bench/bench_fig11b.folded";
  ProfSection prof;
  prof.samples = 870;
  prof.hz = 99;
  prof.frames.push_back({"generate", "InvertBlock", 500, 600});
  report.prof = prof;
  TimeSeries series;
  series.interval_seconds = 0.05;
  series.t = {0.0, 0.05};
  series.v = {0.0, 1024.0};
  report.series["avs.edges_generated"] = series;
  report.spans.push_back({"generate", 0, 1, 0.5, 0.5});
  report.machines[0]["cpu_seconds"] = 0.5;

  RunReport parsed;
  ASSERT_TRUE(RunReport::FromJson(GatedPart(report).ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.meta.count("profile"), 0u);
  EXPECT_EQ(parsed.meta.at("tool"), "bench_fig11b");
  EXPECT_FALSE(parsed.prof.has_value());
  EXPECT_TRUE(parsed.series.empty());
  EXPECT_TRUE(parsed.spans.empty());
  EXPECT_TRUE(parsed.machines.empty());
  EXPECT_EQ(parsed.counters, report.counters);
  EXPECT_EQ(parsed.gauges, report.gauges);
  EXPECT_EQ(parsed.histograms.size(), report.histograms.size());

  DiffResult result =
      DiffReports(GatedPart(report), report, DiffOptions::Defaults());
  EXPECT_TRUE(result.ok()) << result.ToString(true);
  EXPECT_EQ(result.num_checked, 5);
}

}  // namespace
}  // namespace tg::obs
