// Tests for obs/session.h: the figure benches' environment policy
// (SessionOptions::FromEnv) and the outputs obs::Session writes at Finish —
// into directories that do not exist yet, past an injected disk fault, and
// without touching the io.* graph-transport counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "storage/file_io.h"
#include "storage/temp_dir.h"
#include "util/json.h"

namespace tg::obs {
namespace {

constexpr const char* kEnvVars[] = {
    "TG_METRICS_JSON", "TG_TRACE_JSON",         "TG_PROFILE",
    "TG_PROFILE_HZ",   "TG_SAMPLE_INTERVAL_MS", "TG_ADMIN_PORT"};

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { Clear(); }
  void TearDown() override { Clear(); }

  static void Clear() {
    for (const char* var : kEnvVars) ::unsetenv(var);
    storage::IoFailureHookRef() = nullptr;
    SetEnabled(false);
    SetTraceEnabled(false);
    ResetTraceForTest();
    Registry::Global().Reset();
  }
};

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(SessionTest, FromEnvWithNothingSetRunsNothing) {
  const SessionOptions options = SessionOptions::FromEnv("bench_x");
  EXPECT_EQ(options.meta.at("tool"), "bench_x");
  EXPECT_TRUE(options.metrics_json.empty());
  EXPECT_TRUE(options.trace_json.empty());
  EXPECT_TRUE(options.profile.empty());
  EXPECT_FALSE(options.sample);
  EXPECT_EQ(options.admin_port, -1);
}

TEST_F(SessionTest, FromEnvExpandsTheNamePlaceholder) {
  ::setenv("TG_METRICS_JSON", "/tmp/b/{name}.json", 1);
  ::setenv("TG_TRACE_JSON", "/tmp/b/{name}.trace.json", 1);
  ::setenv("TG_PROFILE", "/tmp/b/{name}.folded", 1);
  ::setenv("TG_PROFILE_HZ", "199", 1);
  const SessionOptions options = SessionOptions::FromEnv("bench_x");
  EXPECT_EQ(options.metrics_json, "/tmp/b/bench_x.json");
  EXPECT_EQ(options.trace_json, "/tmp/b/bench_x.trace.json");
  EXPECT_EQ(options.profile, "/tmp/b/bench_x.folded");
  EXPECT_EQ(options.profile_hz, 199);
}

TEST_F(SessionTest, FromEnvParsesSampleIntervalAndAdminPort) {
  ::setenv("TG_SAMPLE_INTERVAL_MS", "250", 1);
  SessionOptions options = SessionOptions::FromEnv("b");
  EXPECT_TRUE(options.sample);
  EXPECT_EQ(options.sampler.interval_ms, 250);
  for (const char* bad : {"0", "-5", "junk"}) {  // non-positive: no sampler
    ::setenv("TG_SAMPLE_INTERVAL_MS", bad, 1);
    EXPECT_FALSE(SessionOptions::FromEnv("b").sample) << bad;
  }
  ::unsetenv("TG_SAMPLE_INTERVAL_MS");

  // A valid port starts the admin server and the sampler feeding /events.
  ::setenv("TG_ADMIN_PORT", "0", 1);
  options = SessionOptions::FromEnv("b");
  EXPECT_EQ(options.admin_port, 0);
  EXPECT_TRUE(options.sample);
  ::setenv("TG_ADMIN_PORT", "9900", 1);
  EXPECT_EQ(SessionOptions::FromEnv("b").admin_port, 9900);
  for (const char* bad : {"-1", "65536", "12x", "port"}) {
    ::setenv("TG_ADMIN_PORT", bad, 1);
    options = SessionOptions::FromEnv("b");
    EXPECT_EQ(options.admin_port, -1) << bad;
    EXPECT_FALSE(options.sample) << bad;
  }
}

TEST_F(SessionTest, FinishWritesEveryOutputOutsideTheIoPath) {
  storage::TempDir dir;
  const std::string base = dir.File("not/yet/there/run");
  SessionOptions options;
  options.meta["tool"] = "session_test";
  options.metrics_json = base + ".json";
  options.metrics_prom = base + ".prom";
  options.trace_json = base + ".trace.json";
  options.profile = base + ".folded";
  Counter* io_bytes = GetCounter("io.bytes_written");
  std::uint64_t io_bytes_before = 0;
  {
    Session session(options);
    ASSERT_TRUE(session.start_status().ok());
    GetCounter("avs.edges_generated")->Add(7);
    io_bytes_before = io_bytes->value();
    // A disk fault aimed at the graph shards must not reach host files.
    storage::IoFailureHookRef() = [](const std::string&) { return true; };
    const Status finished = session.Finish({{"wall_seconds", "1.5"}});
    ASSERT_TRUE(finished.ok()) << finished.ToString();
    EXPECT_TRUE(session.Finish().ok());  // a second Finish is a no-op
  }
  EXPECT_EQ(io_bytes->value(), io_bytes_before);

  RunReport report;
  ASSERT_TRUE(RunReport::FromJson(ReadText(base + ".json"), &report).ok());
  EXPECT_EQ(report.meta["tool"], "session_test");
  EXPECT_EQ(report.meta["wall_seconds"], "1.5");
  EXPECT_EQ(report.meta["profile"], options.profile);
  EXPECT_TRUE(report.prof.has_value());
  EXPECT_EQ(report.counters["avs.edges_generated"], 7u);
  EXPECT_EQ(report.counters["io.bytes_written"], io_bytes_before);
  EXPECT_NE(ReadText(base + ".prom").find("\ntg_avs_edges_generated 7\n"),
            std::string::npos);
  json::Value trace;
  EXPECT_TRUE(json::Parse(ReadText(base + ".trace.json"), &trace).ok());
  EXPECT_TRUE(std::filesystem::exists(base + ".folded"));
}

TEST_F(SessionTest, DestructorFinishesTheSession) {
  storage::TempDir dir;
  ::setenv("TG_METRICS_JSON", dir.File("{name}/report.json").c_str(), 1);
  { Session session(SessionOptions::FromEnv("bench_x")); }
  RunReport report;
  ASSERT_TRUE(
      RunReport::FromJson(ReadText(dir.File("bench_x/report.json")), &report)
          .ok());
  EXPECT_EQ(report.meta["tool"], "bench_x");
}

}  // namespace
}  // namespace tg::obs
