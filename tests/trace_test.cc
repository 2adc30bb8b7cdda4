// Tests for obs/trace.h: the lock-free TraceBuffer ring, the merged drain,
// and the Chrome Trace Event JSON exporter — including a schema validation
// pass (required keys, balanced B/E pairs, monotonic timestamps) over the
// emitted JSON and a concurrent writers-vs-draining-reader stress test that
// the ThreadSanitizer CI job runs under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/json.h"

namespace tg::obs {
namespace {

// Every test starts with tracing off, an empty trace state, and a zeroed
// registry.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    SetTraceEnabled(false);
    SetEnabled(false);
    ResetTraceForTest();
    Registry::Global().Reset();
  }
};

TEST_F(TraceTest, DisabledEmitsNothing) {
  ASSERT_FALSE(TraceEnabled());
  TraceBegin("t.phase");
  TraceInstant("t.marker");
  TraceCounter("t.counter", 42.0);
  TraceWire("t.wire", 0.5);
  TraceEnd("t.phase");
  TraceSnapshot snapshot = DrainTrace();
  EXPECT_TRUE(snapshot.rows.empty());
  EXPECT_EQ(snapshot.dropped, 0u);
}

TEST_F(TraceTest, BufferPreservesEmissionOrder) {
  TraceBuffer buffer(8);
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.ts_ns = 100 + i;
    event.name = "t.event";
    event.type = TraceEventType::kInstant;
    buffer.Emit(event);
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(buffer.Drain(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].ts_ns, 100 + i);
    EXPECT_STREQ(out[i].name, "t.event");
  }
  EXPECT_EQ(buffer.emitted(), 5u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST_F(TraceTest, BufferRingOverwriteKeepsNewestAndCountsDropped) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event;
    event.ts_ns = i;
    event.name = "t.event";
    buffer.Emit(event);
  }
  std::vector<TraceEvent> out;
  buffer.Drain(&out);
  ASSERT_EQ(out.size(), 4u);  // only the newest `capacity` survive
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].ts_ns, 6 + i);
  EXPECT_EQ(buffer.emitted(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
}

TEST_F(TraceTest, DrainPublishesDropCounter) {
  SetTraceEnabled(true);
  TraceInstant("t.marker");
  TraceSnapshot snapshot = DrainTrace();
  ASSERT_EQ(snapshot.rows.size(), 1u);
  EXPECT_EQ(snapshot.dropped, 0u);
  EXPECT_EQ(GetCounter("trace.dropped_events")->value(), 0u);
}

TEST_F(TraceTest, InternTraceNameIsStableAndIdempotent) {
  const char* a = InternTraceName("runtime.name");
  const char* b = InternTraceName("runtime.name");
  const char* c = InternTraceName("runtime.other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "runtime.name");
  EXPECT_STREQ(c, "runtime.other");
}

TEST_F(TraceTest, EventsCarryTheThreadMachineTag) {
  SetTraceEnabled(true);
  {
    ScopedMachine machine(3);
    TraceInstant("t.tagged");
  }
  TraceInstant("t.untagged");
  TraceSnapshot snapshot = DrainTrace();
  ASSERT_EQ(snapshot.rows.size(), 2u);
  std::map<std::string, int> machine_of;
  for (const TraceSnapshot::Row& row : snapshot.rows) {
    machine_of[row.event.name] = row.event.machine;
  }
  EXPECT_EQ(machine_of["t.tagged"], 3);
  EXPECT_EQ(machine_of["t.untagged"], -1);
}

TEST_F(TraceTest, SpansEmitBeginEndPairs) {
  SetEnabled(true);  // spans consult obs::Enabled() first
  SetTraceEnabled(true);
  {
    TG_SPAN("outer");
    TG_SPAN("inner");
  }
  TraceSnapshot snapshot = DrainTrace();
  ASSERT_EQ(snapshot.rows.size(), 4u);
  // Emission order: B(outer) B(inner) E(inner) E(outer).
  EXPECT_EQ(snapshot.rows[0].event.type, TraceEventType::kBegin);
  EXPECT_STREQ(snapshot.rows[0].event.name, "outer");
  EXPECT_EQ(snapshot.rows[1].event.type, TraceEventType::kBegin);
  EXPECT_STREQ(snapshot.rows[1].event.name, "inner");
  EXPECT_EQ(snapshot.rows[2].event.type, TraceEventType::kEnd);
  EXPECT_STREQ(snapshot.rows[2].event.name, "inner");
  EXPECT_EQ(snapshot.rows[3].event.type, TraceEventType::kEnd);
  EXPECT_STREQ(snapshot.rows[3].event.name, "outer");
  // Timestamps never run backwards within one thread.
  for (std::size_t i = 1; i < snapshot.rows.size(); ++i) {
    EXPECT_GE(snapshot.rows[i].event.ts_ns, snapshot.rows[i - 1].event.ts_ns);
  }
}

// --- Chrome Trace Event JSON schema validation -----------------------------

// Emits a representative trace (two simulated machines, nested spans, a wire
// charge, a counter) and returns the parsed JSON document.
json::Value EmitAndExport() {
  SetEnabled(true);
  SetTraceEnabled(true);
  std::thread machine0([] {
    ScopedMachine machine(0);
    TG_SPAN("generate");
    { TG_SPAN("scope"); }
    TraceWire("net.transfer", 0.25);
  });
  machine0.join();
  std::thread machine1([] {
    ScopedMachine machine(1);
    TG_SPAN("generate");
    TraceCounter("progress.edges", 128.0);
    TraceInstant("flush");
  });
  machine1.join();
  std::string text = TraceToChromeJson(DrainTrace());
  json::Value doc;
  Status status = json::Parse(text, &doc);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return doc;
}

TEST_F(TraceTest, ChromeJsonHasRequiredKeysOnEveryEvent) {
  json::Value doc = EmitAndExport();
  ASSERT_TRUE(doc.is_object());
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array.size(), 0u);
  for (const json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const json::Value* name = event.Find("name");
    const json::Value* ph = event.Find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(name->is_string());
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(event.Find("pid"), nullptr);
    EXPECT_TRUE(event.Find("pid")->is_number());
    // process_name metadata is process-scoped and carries no tid; every
    // other event must name its thread track.
    if (!(ph->str == "M" && name->str == "process_name")) {
      ASSERT_NE(event.Find("tid"), nullptr);
      EXPECT_TRUE(event.Find("tid")->is_number());
    }
    if (ph->str != "M") {  // metadata events carry no timestamp
      ASSERT_NE(event.Find("ts"), nullptr);
      EXPECT_TRUE(event.Find("ts")->is_number());
    }
    // Only phases the exporter is specified to produce.
    EXPECT_TRUE(ph->str == "B" || ph->str == "E" || ph->str == "i" ||
                ph->str == "C" || ph->str == "X" || ph->str == "M")
        << "unexpected ph: " << ph->str;
  }
}

TEST_F(TraceTest, ChromeJsonEscapesNamesAndWritesNonFiniteAsNull) {
  static const char kName[] = "q\"b\\s\x01";
  TraceSnapshot snapshot;
  TraceSnapshot::Row row;
  row.event.name = kName;
  row.event.type = TraceEventType::kCounter;
  row.event.value = std::numeric_limits<double>::quiet_NaN();
  snapshot.rows.push_back(row);
  const std::string text = TraceToChromeJson(snapshot);
  EXPECT_EQ(text.find('\x01'), std::string::npos) << text;
  json::Value doc;
  ASSERT_TRUE(json::Parse(text, &doc).ok()) << text;
  bool found = false;
  for (const json::Value& event : doc.Find("traceEvents")->array) {
    if (event.Find("name")->StringOr("") != kName) continue;
    found = true;
    EXPECT_TRUE(event.Find("args")->Find("value")->is_null()) << text;
  }
  EXPECT_TRUE(found) << text;
}

TEST_F(TraceTest, ChromeJsonBalancedBeginEndAndMonotonicTimestamps) {
  json::Value doc = EmitAndExport();
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::pair<double, double>, int> depth;     // (pid, tid) -> open B
  std::map<std::pair<double, double>, double> last_ts;
  int begins = 0;
  for (const json::Value& event : events->array) {
    const std::string& ph = event.Find("ph")->str;
    if (ph == "M") continue;
    std::pair<double, double> track = {event.Find("pid")->number,
                                       event.Find("tid")->number};
    double ts = event.Find("ts")->number;
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regress on a track";
    }
    last_ts[track] = ts;
    if (ph == "B") {
      ++depth[track];
      ++begins;
    } else if (ph == "E") {
      --depth[track];
      EXPECT_GE(depth[track], 0) << "E without matching B";
    }
  }
  EXPECT_GT(begins, 0);
  for (const auto& [track, open] : depth) {
    EXPECT_EQ(open, 0) << "unbalanced B/E on pid=" << track.first
                       << " tid=" << track.second;
  }
}

TEST_F(TraceTest, ChromeJsonMapsMachinesAndWireToProcesses) {
  json::Value doc = EmitAndExport();
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> process_names;
  for (const json::Value& event : events->array) {
    if (event.Find("ph")->str == "M" &&
        event.Find("name")->str == "process_name") {
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      process_names.insert(args->Find("name")->StringOr(""));
    }
  }
  EXPECT_TRUE(process_names.count("machine 0"));
  EXPECT_TRUE(process_names.count("machine 1"));
  EXPECT_TRUE(process_names.count("simulated network"));
  // The wire charge becomes a complete event whose duration is *simulated*
  // time: 0.25 simulated seconds = 250000 trace microseconds.
  bool saw_wire_slice = false;
  for (const json::Value& event : events->array) {
    if (event.Find("ph")->str != "X") continue;
    saw_wire_slice = true;
    EXPECT_NEAR(event.Find("dur")->NumberOr(0), 250000.0, 1.0);
  }
  EXPECT_TRUE(saw_wire_slice);
}

TEST_F(TraceTest, WireTrackPresentEvenWithoutWireEvents) {
  SetTraceEnabled(true);
  TraceInstant("t.marker");
  std::string text = TraceToChromeJson(DrainTrace());
  json::Value doc;
  ASSERT_TRUE(json::Parse(text, &doc).ok());
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_wire_process = false;
  for (const json::Value& event : events->array) {
    if (event.Find("ph")->str == "M" &&
        event.Find("name")->str == "process_name" &&
        event.Find("args")->Find("name")->StringOr("") ==
            "simulated network") {
      saw_wire_process = true;
    }
  }
  EXPECT_TRUE(saw_wire_process);
}

// --- Concurrency -----------------------------------------------------------

// TSan-style stress: several writer threads emit into their per-thread rings
// while a reader drains the merged trace concurrently. The assertions are
// deliberately weak (no torn payloads, accounting adds up) — the real check
// is that ThreadSanitizer stays silent.
TEST_F(TraceTest, ConcurrentWritersVersusDrainingReader) {
  SetTraceEnabled(true);
  static constexpr int kWriters = 4;
  // Below TraceBuffer::kDefaultCapacity so the post-join drain is lossless.
  static constexpr int kEventsPerWriter = 10000;
  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &writers_done] {
      ScopedMachine machine(w);
      for (int i = 0; i < kEventsPerWriter; ++i) {
        TraceCounter("stress.value", static_cast<double>(i));
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      TraceSnapshot snapshot = DrainTrace();
      for (const TraceSnapshot::Row& row : snapshot.rows) {
        // A torn slot would show an interned-name mismatch or wild values.
        ASSERT_STREQ(row.event.name, "stress.value");
        ASSERT_GE(row.event.value, 0.0);
        ASSERT_LT(row.event.value, kEventsPerWriter);
        ASSERT_GE(row.event.machine, 0);
        ASSERT_LT(row.event.machine, kWriters);
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(writers_done.load(), kWriters);

  // Buffers outlive their threads: a post-join drain sees every event.
  TraceSnapshot final_snapshot = DrainTrace();
  EXPECT_EQ(final_snapshot.dropped, 0u);
  std::map<int, int> per_machine;
  for (const TraceSnapshot::Row& row : final_snapshot.rows) {
    ++per_machine[row.event.machine];
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(per_machine[w], kEventsPerWriter) << "machine " << w;
  }
}

}  // namespace
}  // namespace tg::obs
