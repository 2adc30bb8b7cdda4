// Tests for obs/sampler.h: the background time-series sampler feeding
// RunReport::series — monotonic timestamps, live counter/gauge capture, JSON
// round-trip of the embedded series, and idempotent lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/sampler.h"

namespace tg::obs {
namespace {

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry::Global().Reset();
  }
  void TearDown() override {
    SetEnabled(false);
    Registry::Global().Reset();
  }
};

SamplerOptions FastOptions() {
  SamplerOptions options;
  options.interval_ms = 2;
  options.sample_rss = false;
  options.emit_trace_counters = false;
  return options;
}

TEST_F(SamplerTest, SeriesAreMonotonicallyTimestamped) {
  Counter* edges = GetCounter("progress.edges");
  Sampler sampler(FastOptions());
  sampler.Start();
  for (int i = 0; i < 10; ++i) {
    edges->Add(1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  sampler.Stop();

  std::map<std::string, TimeSeries> series = sampler.Series();
  ASSERT_TRUE(series.count("progress.edges"));
  const TimeSeries& ts = series["progress.edges"];
  // Start() records t=0 and Stop() records a final sample, so a ~30ms run at
  // a 2ms interval yields well over 5 points.
  ASSERT_GE(ts.size(), 5u);
  ASSERT_EQ(ts.t.size(), ts.v.size());
  EXPECT_DOUBLE_EQ(ts.t.front(), 0.0);
  for (std::size_t i = 1; i < ts.t.size(); ++i) {
    EXPECT_GE(ts.t[i], ts.t[i - 1]) << "timestamps regress at " << i;
  }
  // A cumulative counter's samples are non-decreasing too, ending at the
  // final value.
  for (std::size_t i = 1; i < ts.v.size(); ++i) {
    EXPECT_GE(ts.v[i], ts.v[i - 1]);
  }
  EXPECT_DOUBLE_EQ(ts.v.back(), 10000.0);
  EXPECT_DOUBLE_EQ(ts.interval_seconds, 0.002);
}

TEST_F(SamplerTest, SamplesGauges) {
  Gauge* gauge = GetGauge("net.simulated_seconds");
  gauge->Set(1.5);
  Sampler sampler(FastOptions());
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  gauge->Set(2.5);
  sampler.Stop();
  std::map<std::string, TimeSeries> series = sampler.Series();
  ASSERT_TRUE(series.count("net.simulated_seconds"));
  const TimeSeries& ts = series["net.simulated_seconds"];
  ASSERT_GE(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.v.front(), 1.5);
  EXPECT_DOUBLE_EQ(ts.v.back(), 2.5);
}

TEST_F(SamplerTest, ExportToEmbedsSeriesAndJsonRoundTrips) {
  GetCounter("progress.edges")->Add(7);
  Sampler sampler(FastOptions());
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  sampler.Stop();

  RunReport report = RunReport::Collect(Registry::Global());
  sampler.ExportTo(&report);
  ASSERT_FALSE(report.series.empty());

  RunReport parsed;
  Status status = RunReport::FromJson(report.ToJson(), &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(parsed.series.size(), report.series.size());
  for (const auto& [name, ts] : report.series) {
    ASSERT_TRUE(parsed.series.count(name)) << name;
    const TimeSeries& got = parsed.series[name];
    ASSERT_EQ(got.size(), ts.size()) << name;
    EXPECT_DOUBLE_EQ(got.interval_seconds, ts.interval_seconds);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_NEAR(got.t[i], ts.t[i], 1e-9);
      EXPECT_NEAR(got.v[i], ts.v[i], 1e-9);
    }
  }
}

TEST_F(SamplerTest, RssSamplingWorksOnLinux) {
#ifdef __linux__
  EXPECT_GT(CurrentRssBytes(), 0u);
  SamplerOptions options = FastOptions();
  options.sample_rss = true;
  Sampler sampler(options);
  sampler.Start();
  sampler.Stop();
  std::map<std::string, TimeSeries> series = sampler.Series();
  ASSERT_TRUE(series.count("proc.rss_bytes"));
  EXPECT_GT(series["proc.rss_bytes"].v.front(), 0.0);
#else
  EXPECT_EQ(CurrentRssBytes(), 0u);
#endif
}

TEST_F(SamplerTest, TickListenerReceivesEveryTickWithDrift) {
  Counter* edges = GetCounter("progress.edges");
  edges->Add(500);
  std::mutex mu;
  std::vector<TickSample> ticks;
  SetTickListener([&](const TickSample& tick) {
    std::lock_guard<std::mutex> lock(mu);
    ticks.push_back(tick);
  });

  SamplerOptions options = FastOptions();
  options.progress_target_edges = 1000;
  Sampler sampler(options);
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();
  SetTickListener(nullptr);

  std::lock_guard<std::mutex> lock(mu);
  // t=0 sample + interval ticks + final sample.
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks.front().t_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ticks.front().drift_ms, 0.0);  // boundary samples: 0
  for (const TickSample& tick : ticks) {
    EXPECT_DOUBLE_EQ(tick.edges, 500.0);
  }
  // The drift gauge carries the latest tick's drift (the Stop boundary
  // sample writes 0 last).
  EXPECT_DOUBLE_EQ(GetGauge("obs.sampler.drift_ms")->value(), 0.0);
}

TEST_F(SamplerTest, RemovedTickListenerIsNotInvoked) {
  std::atomic<int> calls{0};
  SetTickListener([&](const TickSample&) { calls.fetch_add(1); });
  SetTickListener(nullptr);
  Sampler sampler(FastOptions());
  sampler.Start();
  sampler.Stop();
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(SamplerTest, ExportActiveToSnapshotsTheLiveSampler) {
  RunReport report;
  Sampler::ExportActiveTo(&report);  // no active sampler: no-op
  EXPECT_TRUE(report.series.empty());

  Sampler sampler(FastOptions());
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Sampler::ExportActiveTo(&report);
  EXPECT_TRUE(report.series.count("progress.edges"));
  sampler.Stop();

  RunReport after;
  Sampler::ExportActiveTo(&after);  // stopped: deregistered again
  EXPECT_TRUE(after.series.empty());
}

TEST_F(SamplerTest, StopIsIdempotentAndDestructorIsSafe) {
  Sampler sampler(FastOptions());
  sampler.Start();
  sampler.Stop();
  sampler.Stop();  // second Stop is a no-op
  std::size_t size = sampler.Series()["progress.edges"].size();
  EXPECT_GE(size, 2u);  // t=0 sample + final sample
  {
    Sampler unstarted(FastOptions());  // destructor without Start
  }
  {
    Sampler running(FastOptions());  // destructor stops a running sampler
    running.Start();
  }
}

}  // namespace
}  // namespace tg::obs
