// Tests for the tg::prof sampling profiler: the bounded frame-pointer
// unwinder (depth, truncation), folded rendering golden formats, cached
// symbolization determinism, start/stop/status contracts, the off-CPU
// [stall:*] accounting, the RunReport "prof" section round trip, the live
// /pprof + /buildz admin endpoints, and — the TSan target — a multi-worker
// generation sampled at a high rate while snapshots race the collector.
//
// The 409-when-off test must run first in a whole-binary run: it needs the
// process to have never armed the profiler (ctest runs each test in its own
// process, so ordering only matters for manual `./prof_test` runs).
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scope_sink.h"
#include "core/trilliong.h"
#include "obs/run_report.h"
#include "obs/serve/admin_server.h"
#include "prof/folded.h"
#include "prof/profiler.h"
#include "prof/symbolize.h"
#include "serve/minihttp_client.h"
#include "util/stopwatch.h"

namespace tg {
namespace {

constexpr char kHost[] = "127.0.0.1";

/// Every non-empty line of folded text must be `frames... <count>` with a
/// positive integer count and a non-empty frame part.
bool WellFormedFolded(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) return false;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) return false;
    const std::string count = line.substr(space + 1);
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    if (count == "0") return false;  // zero rows must be omitted
  }
  return true;
}

/// Recurses `n` deep, then captures the stack from the innermost frame. The
/// empty asm both defeats tail-call conversion (the call must stay a call so
/// each level keeps a frame) and keeps the addition from folding away.
__attribute__((noinline)) int Recurse(int n, std::uintptr_t* pcs,
                                      int max_depth) {
  if (n <= 0) return prof::CaptureStack(pcs, max_depth);
  int depth = Recurse(n - 1, pcs, max_depth);
  asm volatile("" : "+r"(depth));
  return depth;
}

// ---------------------------------------------------------------------------
// /pprof endpoint off-path (first: needs a never-armed profiler).

TEST(ProfServeOrderFirstTest, ProfileEndpointConflictsWhenNeverStarted) {
  ASSERT_FALSE(prof::ProfilerRunning());
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  const serve::ClientResponse reply =
      serve::HttpGet(kHost, admin.port(), "/pprof/profile");
  EXPECT_EQ(reply.status, 409) << reply.error << reply.body;
  EXPECT_NE(reply.body.find("profiler not running"), std::string::npos);
  // The status endpoint answers 200 regardless.
  const serve::ClientResponse status =
      serve::HttpGet(kHost, admin.port(), "/pprof/status");
  EXPECT_EQ(status.status, 200) << status.error << status.body;
  EXPECT_NE(status.body.find("\"running\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Unwinder.

TEST(CaptureStackTest, DepthGrowsWithRecursion) {
  prof::EnsureThreadRegistered();
  std::uintptr_t pcs[prof::kMaxStackDepth];
  const int shallow = Recurse(2, pcs, prof::kMaxStackDepth);
  ASSERT_GT(shallow, 0);
  std::uintptr_t deep_pcs[prof::kMaxStackDepth];
  const int deep = Recurse(12, deep_pcs, prof::kMaxStackDepth);
  // Frame-pointer walks need -fno-omit-frame-pointer (set globally); if the
  // toolchain still produced FP-less frames the walk stops at depth 1 and
  // the depth comparison is meaningless.
  if (shallow > 1) {
    EXPECT_GE(deep, shallow + 8) << "10 extra recursion levels missing";
  }
  EXPECT_LE(deep, prof::kMaxStackDepth);
}

TEST(CaptureStackTest, TruncatesAtMaxDepth) {
  prof::EnsureThreadRegistered();
  std::uintptr_t pcs[prof::kMaxStackDepth];
  const int full = Recurse(prof::kMaxStackDepth + 20, pcs,
                           prof::kMaxStackDepth);
  EXPECT_LE(full, prof::kMaxStackDepth);
  if (full == prof::kMaxStackDepth) {
    // The walk really was cut short; a smaller cap must cut it shorter.
    std::uintptr_t few[8];
    EXPECT_EQ(Recurse(prof::kMaxStackDepth + 20, few, 8), 8);
  }
  // Zero capacity is a no-op, not a crash.
  EXPECT_EQ(prof::CaptureStack(pcs, 0), 0);
}

// ---------------------------------------------------------------------------
// Folded rendering (hand-built snapshots: fully deterministic goldens).

TEST(FoldedTest, StallGolden) {
  prof::ProfileSnapshot snap;
  snap.hz = 99;
  snap.stalls.push_back({"writer", "io", 0, 7});
  snap.stalls.push_back({"steal_wait", "generate", 1, 3});
  snap.stalls.push_back({"never", "generate", 0, 0});  // zero rows vanish
  snap.stalls.push_back({"idle", "", 2, 5});           // empty phase
  EXPECT_EQ(prof::RenderFolded(snap),
            "(idle);[stall:idle] 5\n"
            "generate;[stall:steal_wait] 3\n"
            "io;[stall:writer] 7\n");
}

TEST(FoldedTest, MergesIdenticalLinesAcrossWorkers) {
  prof::ProfileSnapshot snap;
  snap.hz = 99;
  // The same (kind, phase) from two machines is one flamegraph row.
  snap.stalls.push_back({"writer", "io", 0, 7});
  snap.stalls.push_back({"writer", "io", 1, 4});
  EXPECT_EQ(prof::RenderFolded(snap), "io;[stall:writer] 11\n");
}

TEST(FoldedTest, RealStackRendersRootFirstWithPhasePrefix) {
  prof::EnsureThreadRegistered();
  prof::ProfileSnapshot snap;
  snap.hz = 99;
  prof::ProfileSnapshot::Stack stack;
  stack.pcs.resize(prof::kMaxStackDepth);
  const int depth = Recurse(4, stack.pcs.data(), prof::kMaxStackDepth);
  ASSERT_GT(depth, 0);
  stack.pcs.resize(static_cast<std::size_t>(depth));
  stack.phase = "unit";
  stack.count = 2;
  snap.stacks.push_back(stack);
  stack.worker = 7;  // same pcs seen on another worker: merged
  snap.stacks.push_back(stack);
  snap.samples = 4;
  const std::string folded = prof::RenderFolded(snap);
  EXPECT_TRUE(WellFormedFolded(folded)) << folded;
  ASSERT_EQ(folded.substr(0, 5), "unit;") << folded;
  EXPECT_EQ(folded.substr(folded.size() - 3), " 4\n") << folded;
  EXPECT_EQ(folded.find('\n'), folded.size() - 1) << folded;
}

TEST(FoldedTest, DiffSubtractsAndOmitsNonGrowingRows) {
  prof::ProfileSnapshot before;
  before.hz = 99;
  before.stalls.push_back({"writer", "io", 0, 7});
  before.stalls.push_back({"idle", "tail", 0, 5});
  prof::ProfileSnapshot after = before;
  after.stalls[0].count = 10;  // grew by 3
  // stalls[1] unchanged: omitted from the diff.
  EXPECT_EQ(prof::RenderFoldedDiff(before, after), "io;[stall:writer] 3\n");
}

TEST(FoldedTest, EmptySnapshotRendersEmpty) {
  prof::ProfileSnapshot empty;
  EXPECT_EQ(prof::RenderFolded(empty), "");
  EXPECT_EQ(prof::RenderFoldedDiff(empty, empty), "");
  obs::RunReport report;
  prof::ExportTo(empty, &report);
  ASSERT_TRUE(report.prof.has_value());
  EXPECT_EQ(report.prof->samples, 0u);
  EXPECT_TRUE(report.prof->frames.empty());
}

// ---------------------------------------------------------------------------
// Symbolization.

TEST(SymbolizeTest, DeterministicAcrossCacheClear) {
  const std::uintptr_t pc =
      reinterpret_cast<std::uintptr_t>(&prof::CaptureStack);
  const std::string warm = prof::SymbolizeFrame(pc, /*is_leaf=*/true);
  ASSERT_FALSE(warm.empty());
  EXPECT_EQ(prof::SymbolizeFrame(pc, true), warm);
  prof::ClearSymbolCache();
  EXPECT_EQ(prof::SymbolizeFrame(pc, true), warm);
  // -rdynamic exports the library's own symbols to dladdr.
  EXPECT_NE(warm.find("CaptureStack"), std::string::npos) << warm;
}

TEST(SymbolizeTest, DemangledNamesAreOneTokenWithoutParameters) {
  // CaptureStack(unsigned long*, int): the parameter list and its spaces
  // would break the `frame;frame <count>` folded line.
  const std::uintptr_t pc =
      reinterpret_cast<std::uintptr_t>(&prof::CaptureStack);
  EXPECT_EQ(prof::SymbolizeFrame(pc, /*is_leaf=*/true),
            "tg::prof::CaptureStack");
}

TEST(SymbolizeTest, NonLeafFramesResolveTheCallSite) {
  // A return address that is the first byte *after* a function still lands
  // inside it thanks to the pc-1 adjustment; symbolizing it as a leaf may
  // fall through to module+offset, but must never throw or return empty.
  const std::uintptr_t pc =
      reinterpret_cast<std::uintptr_t>(&prof::CaptureStack) + 1;
  EXPECT_FALSE(prof::SymbolizeFrame(pc, /*is_leaf=*/false).empty());
  EXPECT_FALSE(prof::SymbolizeFrame(0, true).empty());
}

// ---------------------------------------------------------------------------
// Profiler lifecycle + off-CPU accounting.

TEST(ProfilerTest, StartStopStatusContract) {
  prof::ProfilerOptions bad;
  bad.hz = 0;
  EXPECT_FALSE(prof::StartProfiler(bad).ok());
  bad.hz = 100001;
  EXPECT_FALSE(prof::StartProfiler(bad).ok());

  ASSERT_TRUE(prof::StartProfiler({}).ok());
  EXPECT_TRUE(prof::ProfilerRunning());
  EXPECT_FALSE(prof::StartProfiler({}).ok()) << "double start must fail";
  prof::ProfilerStatus status = prof::GetStatus();
  EXPECT_TRUE(status.running);
  EXPECT_EQ(status.hz, 99);
  EXPECT_GE(status.threads, 1);

  prof::StopProfiler();
  EXPECT_FALSE(prof::ProfilerRunning());
  prof::StopProfiler();  // idempotent
  EXPECT_FALSE(prof::GetStatus().running);
}

TEST(ProfilerTest, RecordStallConvertsSecondsToSampleEquivalents) {
  prof::ProfilerOptions options;
  options.hz = 100;
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  prof::RecordStall("unit_stall", 0.5);
  prof::RecordStall("unit_stall", 0.25);
  prof::StopProfiler();
  const prof::ProfileSnapshot snap = prof::TakeSnapshot();
  EXPECT_EQ(snap.hz, 100);
  std::uint64_t count = 0;
  for (const auto& stall : snap.stalls) {
    if (stall.kind == "unit_stall") count += stall.count;
  }
  EXPECT_EQ(count, 75u);  // 0.75 s at 100 Hz
  const std::string folded = prof::RenderFolded(snap);
  EXPECT_NE(folded.find("[stall:unit_stall] 75"), std::string::npos) << folded;
}

TEST(ProfilerTest, RecordStallIsANoOpWhenStopped) {
  ASSERT_FALSE(prof::ProfilerRunning());
  const prof::ProfileSnapshot before = prof::TakeSnapshot();
  prof::RecordStall("ghost", 100.0);
  const prof::ProfileSnapshot after = prof::TakeSnapshot();
  EXPECT_EQ(after.stalls.size(), before.stalls.size());
  for (const auto& stall : after.stalls) EXPECT_NE(stall.kind, "ghost");
}

TEST(ProfilerTest, RestartDiscardsThePreviousSession) {
  prof::ProfilerOptions options;
  options.hz = 100;
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  prof::RecordStall("first_session", 1.0);
  prof::StopProfiler();
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  prof::RecordStall("second_session", 1.0);
  prof::StopProfiler();
  const prof::ProfileSnapshot snap = prof::TakeSnapshot();
  bool saw_second = false;
  for (const auto& stall : snap.stalls) {
    EXPECT_NE(stall.kind, "first_session");
    saw_second = saw_second || stall.kind == "second_session";
  }
  EXPECT_TRUE(saw_second);
}

/// Stack-table interning is deterministic: snapshotting twice without new
/// samples yields identical (stack_id, pcs, count) rows, and ids are dense.
TEST(ProfilerTest, SnapshotInterningIsStable) {
  prof::ProfilerOptions options;
  options.hz = 1000;
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  // Burn CPU so some samples land (CPU-time timer: sleeping never samples).
  volatile double sink = 0.0;
  for (int i = 0; i < 20000000; ++i) sink = sink + i * 0.5;
  prof::StopProfiler();
  const prof::ProfileSnapshot a = prof::TakeSnapshot();
  const prof::ProfileSnapshot b = prof::TakeSnapshot();
  ASSERT_EQ(a.stacks.size(), b.stacks.size());
  for (std::size_t i = 0; i < a.stacks.size(); ++i) {
    EXPECT_EQ(a.stacks[i].stack_id, b.stacks[i].stack_id);
    EXPECT_EQ(a.stacks[i].pcs, b.stacks[i].pcs);
    EXPECT_EQ(a.stacks[i].count, b.stacks[i].count);
    // Ids are interned densely: rows may share one (same stack in several
    // phases/workers), so every id is below the row count.
    EXPECT_LT(a.stacks[i].stack_id, a.stacks.size());
  }
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(prof::RenderFolded(a), prof::RenderFolded(b));
}

// ---------------------------------------------------------------------------
// RunReport "prof" section round trip.

TEST(ProfReportTest, JsonRoundTrip) {
  obs::RunReport report;
  report.meta["tool"] = "prof_test";
  obs::ProfSection section;
  section.samples = 1234;
  section.dropped = 5;
  section.hz = 99;
  section.frames.push_back({"generate", "tg::core::EdgeKernel", 700, 900});
  section.frames.push_back({"io", "[stall:writer]", 50, 50});
  report.prof = section;

  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::FromJson(report.ToJson(), &parsed).ok());
  ASSERT_TRUE(parsed.prof.has_value());
  EXPECT_EQ(parsed.prof->samples, 1234u);
  EXPECT_EQ(parsed.prof->dropped, 5u);
  EXPECT_EQ(parsed.prof->hz, 99);
  ASSERT_EQ(parsed.prof->frames.size(), 2u);
  EXPECT_EQ(parsed.prof->frames[0].phase, "generate");
  EXPECT_EQ(parsed.prof->frames[0].frame, "tg::core::EdgeKernel");
  EXPECT_EQ(parsed.prof->frames[0].self, 700u);
  EXPECT_EQ(parsed.prof->frames[0].total, 900u);
  EXPECT_EQ(parsed.prof->frames[1].frame, "[stall:writer]");
  // The table view names the section.
  EXPECT_NE(parsed.ToTable().find("prof (1234 samples"), std::string::npos);
}

TEST(ProfReportTest, AbsentSectionStaysAbsent) {
  obs::RunReport report;
  report.meta["tool"] = "prof_test";
  EXPECT_EQ(report.ToJson().find("\"prof\""), std::string::npos);
  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::FromJson(report.ToJson(), &parsed).ok());
  EXPECT_FALSE(parsed.prof.has_value());
}

// ---------------------------------------------------------------------------
// Live endpoints with a running profiler.

TEST(ProfServeTest, PprofProfileAndStatusRoundTrip) {
  prof::ProfilerOptions options;
  options.hz = 1000;
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());

  volatile double sink = 0.0;
  for (int i = 0; i < 20000000; ++i) sink = sink + i * 0.5;
  prof::RecordStall("serve_unit", 0.1);

  const std::string status_body =
      serve::HttpGet(kHost, admin.port(), "/pprof/status").body;
  EXPECT_NE(status_body.find("\"running\": true"), std::string::npos)
      << status_body;
  EXPECT_NE(status_body.find("\"hz\": 1000"), std::string::npos);

  const serve::ClientResponse reply =
      serve::HttpGet(kHost, admin.port(), "/pprof/profile");
  EXPECT_EQ(reply.status, 200) << reply.error << reply.body;
  const std::string& folded = reply.body;
  EXPECT_TRUE(WellFormedFolded(folded)) << folded;
  EXPECT_NE(folded.find("[stall:serve_unit]"), std::string::npos) << folded;

  prof::StopProfiler();
  // A stopped-but-sampled profiler still serves its cumulative profile.
  const serve::ClientResponse after =
      serve::HttpGet(kHost, admin.port(), "/pprof/profile");
  EXPECT_EQ(after.status, 200) << after.error << after.body;
}

TEST(ProfServeTest, BuildzNamesTheBinary) {
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  const serve::ClientResponse reply =
      serve::HttpGet(kHost, admin.port(), "/buildz");
  EXPECT_EQ(reply.status, 200) << reply.error << reply.body;
  const std::string& body = reply.body;
  EXPECT_NE(body.find("\"git\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"compiler\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"cxx_standard\""), std::string::npos) << body;
}

// A registered thread hands its ring back when it exits, so a run that
// starts far more short-lived threads than there are rings (the simulated
// cluster starts fresh threads for every phase) keeps sampling all of them.
TEST(ProfilerTest, ShortLivedThreadsReturnTheirRings) {
  prof::ProfilerOptions options;
  options.hz = 1000;
  ASSERT_TRUE(prof::StartProfiler(options).ok());
  // The CPU-time timer's signal goes to a thread that does not block it;
  // with the joining thread blocking SIGPROF, that is the busy worker on
  // every kernel.
  sigset_t sigprof;
  sigemptyset(&sigprof);
  sigaddset(&sigprof, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &sigprof, nullptr);
  constexpr int kThreads = 3 * prof::kMaxProfiledThreads;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i, &sigprof] {
      pthread_sigmask(SIG_UNBLOCK, &sigprof, nullptr);
      prof::EnsureThreadRegistered(i);
      // ~5 ms of CPU: about five samples at 1000 Hz.
      const double until = ThreadCpuSeconds() + 0.005;
      volatile std::uint64_t sink = 0;
      while (ThreadCpuSeconds() < until) sink = sink + 1;
    }).join();
  }
  pthread_sigmask(SIG_UNBLOCK, &sigprof, nullptr);
  prof::StopProfiler();

  const prof::ProfileSnapshot snap = prof::TakeSnapshot();
  std::uint64_t late = 0;  // samples of threads started after the pool ran out
  for (const auto& stack : snap.stacks) {
    if (stack.worker >= prof::kMaxProfiledThreads) late += stack.count;
  }
  EXPECT_GT(late, 0u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_LT(prof::GetStatus().threads, prof::kMaxProfiledThreads);
}

// ---------------------------------------------------------------------------
// The TSan target: sample a real multi-worker generation at a high rate
// while snapshot readers race the collector and stall writers. Assertions
// are deliberately weak (sample counts depend on CPU time granted), but any
// handler/collector/snapshot race fails under -fsanitize=thread.

TEST(ProfStressTest, SamplesAFourWorkerRunUnderConcurrentSnapshots) {
  prof::ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(prof::StartProfiler(options).ok());

  std::atomic<bool> done{false};
  std::thread snapshotter([&done] {
    while (!done.load(std::memory_order_relaxed)) {
      const prof::ProfileSnapshot snap = prof::TakeSnapshot();
      EXPECT_EQ(snap.hz, 997);
      (void)prof::GetStatus();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  core::TrillionGConfig config;
  config.scale = 15;
  config.edge_factor = 8;
  config.num_workers = 4;
  std::uint64_t total_edges = 0;
  std::mutex total_mu;
  const core::GenerateStats stats = core::Generate(
      config, [&](int, VertexId, VertexId) -> std::unique_ptr<core::ScopeSink> {
        class Locked : public core::ScopeSink {
         public:
          Locked(std::uint64_t* total, std::mutex* mu)
              : total_(total), mu_(mu) {}
          void ConsumeScope(VertexId, const VertexId*,
                            std::size_t n) override {
            std::lock_guard<std::mutex> lock(*mu_);
            *total_ += n;
          }

         private:
          std::uint64_t* total_;
          std::mutex* mu_;
        };
        return std::make_unique<Locked>(&total_edges, &total_mu);
      });
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();
  prof::StopProfiler();

  // Profiling must not perturb generation.
  EXPECT_EQ(stats.num_edges, total_edges);
  const prof::ProfileSnapshot snap = prof::TakeSnapshot();
  EXPECT_EQ(snap.hz, 997);
  const std::string folded = prof::RenderFolded(snap);
  EXPECT_TRUE(WellFormedFolded(folded)) << folded;
  // Every sample that made it into the table is on some stack row.
  std::uint64_t on_stacks = 0;
  for (const auto& stack : snap.stacks) on_stacks += stack.count;
  EXPECT_EQ(on_stacks, snap.samples);
}

}  // namespace
}  // namespace tg
