#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "cluster/sim_cluster.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "util/common.h"
#include "util/memory_budget.h"
#include "util/oom_report.h"

namespace tg::obs {
namespace {

// Every test starts from a zeroed global registry with instrumentation off;
// tests that need spans/histograms enable them explicitly.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    Registry::Global().Reset();
  }
  void TearDown() override {
    SetEnabled(false);
    Registry::Global().Reset();
  }
};

TEST_F(ObsTest, CounterAddIncrementReset) {
  Counter* c = GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Add(5);
  c->Increment();
  EXPECT_EQ(c->value(), 6u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(ObsTest, GaugeSetAddMax) {
  Gauge* g = GetGauge("test.gauge");
  g->Set(2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  g->Max(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  g->Max(7.0);
  EXPECT_DOUBLE_EQ(g->value(), 7.0);
}

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  Counter* a = GetCounter("test.stable");
  Counter* b = GetCounter("test.stable");
  EXPECT_EQ(a, b);
  a->Add(3);
  Registry::Global().Reset();
  // Reset zeroes in place; the cached pointer stays valid and reusable.
  EXPECT_EQ(a->value(), 0u);
  a->Increment();
  EXPECT_EQ(GetCounter("test.stable")->value(), 1u);
}

TEST_F(ObsTest, HistogramBucketMath) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(5), 16u);
  // Every bucket's lower bound maps back into that bucket.
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(b)), b);
  }
}

TEST_F(ObsTest, HistogramObserveAndSnapshot) {
  Histogram* h = GetHistogram("test.hist");
  for (std::uint64_t v : {0ULL, 1ULL, 1ULL, 5ULL, 300ULL}) h->Observe(v);
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 307u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 300u);
  ASSERT_EQ(snap.buckets.size(), 10u);  // 300 has bit width 9; trailing trimmed
  EXPECT_EQ(snap.buckets[0], 1u);      // value 0
  EXPECT_EQ(snap.buckets[1], 2u);      // the two 1s
  EXPECT_EQ(snap.buckets[3], 1u);      // 5 in [4, 8)
  EXPECT_EQ(snap.buckets[9], 1u);      // 300 in [256, 512)
  h->Reset();
  EXPECT_EQ(h->count(), 0u);
  EXPECT_TRUE(h->Snapshot().buckets.empty());
}

TEST_F(ObsTest, HistogramBatchFlushEqualsDirectObserves) {
  // The generator publishes avs.scope_degree in batches; after each flush
  // the histogram must hold exactly what per-value observes produce.
  Histogram* direct = GetHistogram("test.hist_direct");
  Histogram* batched = GetHistogram("test.hist_batched");
  HistogramBatch batch;
  std::uint64_t v = 12345;
  for (int flush = 0; flush < 3; ++flush) {
    for (int i = 0; i < 1000; ++i) {
      v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t x = (v >> 40) >> (v & 15);
      direct->Observe(x);
      batch.Observe(x);
    }
    EXPECT_EQ(batch.count(), 1000u);
    batch.FlushTo(batched);
    EXPECT_EQ(batch.count(), 0u);
    const HistogramSnapshot a = direct->Snapshot();
    const HistogramSnapshot b = batched->Snapshot();
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.sum, a.sum);
    EXPECT_EQ(b.min, a.min);
    EXPECT_EQ(b.max, a.max);
    EXPECT_EQ(b.buckets, a.buckets);
  }
  batch.FlushTo(batched);  // an empty batch changes nothing
  EXPECT_EQ(batched->count(), 3000u);
}

TEST_F(ObsTest, ConcurrentIncrementsAreLossless) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter* c = GetCounter("test.concurrent");
  Histogram* h = GetHistogram("test.concurrent_hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, SpanNestingBuildsSlashPaths) {
  SetEnabled(true);
  {
    TG_SPAN("outer");
    {
      TG_SPAN("inner");
    }
    {
      TG_SPAN("inner");
    }
  }
  auto spans = Registry::Global().SpanValues();
  ASSERT_EQ(spans.size(), 2u);
  const SpanStats& outer = spans.at({"outer", -1});
  const SpanStats& inner = spans.at({"outer/inner", -1});
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  EXPECT_GE(outer.wall_seconds, inner.wall_seconds);
  EXPECT_GE(inner.wall_seconds, 0.0);
}

TEST_F(ObsTest, SpansRecordNothingWhenDisabled) {
  {
    TG_SPAN("ghost");
  }
  EXPECT_TRUE(Registry::Global().SpanValues().empty());
}

TEST_F(ObsTest, ScopedMachineTagsSpans) {
  SetEnabled(true);
  EXPECT_EQ(CurrentMachine(), -1);
  {
    ScopedMachine tag(3);
    EXPECT_EQ(CurrentMachine(), 3);
    TG_SPAN("work");
  }
  EXPECT_EQ(CurrentMachine(), -1);
  auto spans = Registry::Global().SpanValues();
  ASSERT_EQ(spans.count({"work", 3}), 1u);
  EXPECT_EQ(spans.at({"work", 3}).count, 1u);
}

TEST_F(ObsTest, JsonRoundTrip) {
  SetEnabled(true);
  GetCounter("rt.counter")->Add(12345678901234ULL);
  // Above 2^53 a double rounds; the parser must keep the integers exact.
  GetCounter("rt.counter_2p53_plus_1")->Add((std::uint64_t{1} << 53) + 1);
  GetCounter("rt.counter_u64_max")->Add(UINT64_MAX);
  GetGauge("rt.gauge")->Set(0.125);
  Histogram* h = GetHistogram("rt.hist");
  h->Observe(7);
  h->Observe(1000);
  Registry::Global().RecordSpan("rt/phase", 2, 1.5, 0.75);
  Registry::Global().SetMachineStat(0, "peak_bytes", 4096.0);

  RunReport report = RunReport::Collect(Registry::Global());
  report.meta["scale"] = "20";
  report.meta["quote\"and\\slash"] = "line\nbreak";

  RunReport parsed;
  Status status = RunReport::FromJson(report.ToJson(), &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed.meta, report.meta);
  EXPECT_EQ(parsed.counters, report.counters);
  EXPECT_EQ(parsed.counters.at("rt.counter_2p53_plus_1"),
            (std::uint64_t{1} << 53) + 1);
  EXPECT_EQ(parsed.counters.at("rt.counter_u64_max"), UINT64_MAX);
  EXPECT_EQ(parsed.gauges, report.gauges);
  EXPECT_EQ(parsed.machines, report.machines);
  ASSERT_EQ(parsed.histograms.size(), report.histograms.size());
  const HistogramSnapshot& snap = parsed.histograms.at("rt.hist");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 1007u);
  EXPECT_EQ(snap.buckets, report.histograms.at("rt.hist").buckets);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].path, "rt/phase");
  EXPECT_EQ(parsed.spans[0].machine, 2);
  EXPECT_EQ(parsed.spans[0].count, 1u);
  EXPECT_DOUBLE_EQ(parsed.spans[0].wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(parsed.spans[0].cpu_seconds, 0.75);
}

TEST_F(ObsTest, FromJsonRejectsGarbage) {
  RunReport parsed;
  EXPECT_FALSE(RunReport::FromJson("not json", &parsed).ok());
  EXPECT_FALSE(RunReport::FromJson("{\"counters\": [1,2]}", &parsed).ok());
  EXPECT_FALSE(
      RunReport::FromJson("{\"spans\": [{\"machine\": 1e300}]}", &parsed)
          .ok());
}

TEST_F(ObsTest, SimClusterShuffleMatchesNetworkModelCharges) {
  SetEnabled(true);
  cluster::SimCluster::Options options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  cluster::SimCluster sim(options);
  const int n = sim.num_workers();

  // Every worker sends 100 edges to every worker (including itself); only
  // cross-machine payloads hit the simulated wire.
  std::vector<std::vector<std::vector<Edge>>> outbox(n);
  for (int src = 0; src < n; ++src) {
    outbox[src].resize(n);
    for (int dst = 0; dst < n; ++dst) {
      outbox[src][dst].assign(100, Edge{static_cast<VertexId>(src),
                                        static_cast<VertexId>(dst)});
    }
  }
  std::vector<std::vector<Edge>> inbox = sim.Shuffle(std::move(outbox));
  for (int dst = 0; dst < n; ++dst) {
    EXPECT_EQ(inbox[dst].size(), static_cast<std::size_t>(n) * 100);
  }

  // 2 machines x 2 workers: each machine sends 2x2x100 edges across.
  const std::uint64_t expected_bytes = 2ull * 2 * 2 * 100 * sizeof(Edge);
  EXPECT_EQ(sim.shuffled_bytes(), expected_bytes);
  auto counters = Registry::Global().CounterValues();
  EXPECT_EQ(counters.at("cluster.shuffled_bytes"), sim.shuffled_bytes());
  EXPECT_EQ(counters.at("net.transfers"), 1u);
  EXPECT_GT(sim.network_seconds(), 0.0);
  EXPECT_NEAR(Registry::Global().GaugeValues().at("net.simulated_seconds"),
              sim.network_seconds(), 1e-12);

  // Spans recorded under the shuffle path; machine stats fold into the
  // registry's per-machine table.
  EXPECT_EQ(Registry::Global().SpanValues().count({"cluster.shuffle", -1}),
            1u);
  sim.RecordMachineStats();
  auto machines = Registry::Global().MachineStats();
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_GE(machines.at(0).at("peak_bytes"), 0.0);
}

TEST_F(ObsTest, PreregisterCreatesCanonicalKeysAtZero) {
  PreregisterCanonicalMetrics();
  auto counters = Registry::Global().CounterValues();
  auto gauges = Registry::Global().GaugeValues();
  EXPECT_EQ(counters.at("avs.edges_generated"), 0u);
  EXPECT_EQ(counters.at("cluster.shuffled_bytes"), 0u);
  EXPECT_EQ(counters.at("sort.bytes_spilled"), 0u);
  EXPECT_EQ(counters.at("mem.oom_events"), 0u);
  EXPECT_DOUBLE_EQ(gauges.at("net.simulated_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("mem.peak_machine_bytes"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("mem.used_bytes"), 0.0);
}

OomReport MakeOomReport() {
  OomReport report;
  report.machine = 2;
  report.tag = "cluster.shuffle_buf";
  report.requested_bytes = 4096;
  report.used_bytes = 60000;
  report.limit_bytes = 61440;
  report.breakdown = {{"cluster.shuffle_buf", 50000, 55000},
                      {"storage.extsort.run", 10000, 12000}};
  report.span_stack = "wesp.generate";
  report.headroom_t = {0.1, 0.2, 0.3};
  report.headroom_pct = {40.0, 12.5, 2.0};
  return report;
}

TEST_F(ObsTest, OomReportRoundTripsThroughRunReportJson) {
  RunReport report = RunReport::Collect(Registry::Global());
  report.oom = MakeOomReport();

  RunReport parsed;
  Status status = RunReport::FromJson(report.ToJson(), &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(parsed.oom.has_value());
  EXPECT_EQ(parsed.oom->machine, 2);
  EXPECT_EQ(parsed.oom->tag, "cluster.shuffle_buf");
  EXPECT_EQ(parsed.oom->requested_bytes, 4096u);
  EXPECT_EQ(parsed.oom->used_bytes, 60000u);
  EXPECT_EQ(parsed.oom->limit_bytes, 61440u);
  EXPECT_EQ(parsed.oom->span_stack, "wesp.generate");
  ASSERT_EQ(parsed.oom->breakdown.size(), 2u);
  EXPECT_EQ(parsed.oom->breakdown[0].tag, "cluster.shuffle_buf");
  EXPECT_EQ(parsed.oom->breakdown[0].used_bytes, 50000u);
  EXPECT_EQ(parsed.oom->breakdown[1].peak_bytes, 12000u);
  ASSERT_EQ(parsed.oom->headroom_pct.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.oom->headroom_pct[1], 12.5);
  EXPECT_DOUBLE_EQ(parsed.oom->headroom_t[2], 0.3);

  // A report without an OOM stays without one through the round trip.
  RunReport clean = RunReport::Collect(Registry::Global());
  clean.oom.reset();
  RunReport clean_parsed;
  clean_parsed.oom = MakeOomReport();  // must be overwritten by FromJson
  ASSERT_TRUE(RunReport::FromJson(clean.ToJson(), &clean_parsed).ok());
  EXPECT_FALSE(clean_parsed.oom.has_value());
}

TEST_F(ObsTest, RecordOomFlowsIntoCollectAndResetClears) {
  EXPECT_FALSE(LastOom().has_value());
  RecordOom(MakeOomReport());
  EXPECT_EQ(GetCounter("mem.oom_events")->value(), 1u);

  RunReport report = RunReport::Collect(Registry::Global());
  ASSERT_TRUE(report.oom.has_value());
  EXPECT_EQ(report.oom->tag, "cluster.shuffle_buf");
  // The human-readable table names the failing machine and tag.
  EXPECT_NE(report.ToTable().find("mem.oom"), std::string::npos);
  EXPECT_NE(report.ToTable().find("machine 2"), std::string::npos);

  Registry::Global().Reset();
  EXPECT_FALSE(LastOom().has_value());
  EXPECT_FALSE(RunReport::Collect(Registry::Global()).oom.has_value());
}

TEST_F(ObsTest, StandaloneOomReportJsonNamesTagAndMachine) {
  std::string json = OomReportToJson(MakeOomReport());
  EXPECT_NE(json.find("\"tag\": \"cluster.shuffle_buf\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\": 2"), std::string::npos);
  EXPECT_NE(json.find("storage.extsort.run"), std::string::npos);
}

TEST_F(ObsTest, PublishMemoryGaugesTracksLiveBudgets) {
  MemoryBudget budget(1000, /*machine=*/5);
  budget.Allocate(250, budget.Tag("test.component"));
  PublishMemoryGauges();
  auto gauges = Registry::Global().GaugeValues();
  EXPECT_DOUBLE_EQ(gauges.at("mem.m5.used_bytes"), 250.0);
  EXPECT_DOUBLE_EQ(gauges.at("mem.m5.headroom_pct"), 75.0);
  EXPECT_GE(gauges.at("mem.used_bytes"), 250.0);
  EXPECT_LE(gauges.at("mem.headroom_pct"), 75.0);
  EXPECT_DOUBLE_EQ(gauges.at("mem.tag.test.component.peak_bytes"), 250.0);
  budget.Release(250, budget.Tag("test.component"));
}

TEST_F(ObsTest, RetiringBudgetFoldsTagPeaksIntoRegistry) {
  PreregisterCanonicalMetrics();  // installs the budget retire hook
  {
    MemoryBudget budget(0, /*machine=*/4);
    budget.Allocate(777, budget.Tag("test.retired"));
    budget.Release(777, budget.Tag("test.retired"));
  }
  auto gauges = Registry::Global().GaugeValues();
  EXPECT_DOUBLE_EQ(gauges.at("mem.tag.test.retired.peak_bytes"), 777.0);
  EXPECT_GE(gauges.at("mem.peak_machine_bytes"), 777.0);
  auto machines = Registry::Global().MachineStats();
  EXPECT_DOUBLE_EQ(machines.at(4).at("peak_bytes"), 777.0);
}

}  // namespace
}  // namespace tg::obs
