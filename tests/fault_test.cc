// Tests for tg::fault: plan parsing, deterministic injection, crash
// recovery (bit-identical output), the chunk-commit journal, and resumable
// format writers. The die-based tests use gtest death tests: the child
// process is hard-killed by the injector (std::_Exit(86)) and the parent
// resumes from the files the child left behind — the closest an in-process
// test gets to kill -9.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/network_model.h"
#include "cluster/sim_cluster.h"
#include "cluster/trilliong_cluster.h"
#include "core/scheduler.h"
#include "core/scope_sink.h"
#include "core/trilliong.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/journal.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "storage/file_io.h"

namespace tg::fault {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream data;
  data << in.rdbuf();
  return data.str();
}

/// Thread-safe adjacency collector (scopes arrive from several workers).
class LockedMapSink : public core::ScopeSink {
 public:
  LockedMapSink(std::map<VertexId, std::vector<VertexId>>* out,
                std::mutex* mu)
      : out_(out), mu_(mu) {}
  void ConsumeScope(VertexId u, const VertexId* adj,
                    std::size_t n) override {
    std::lock_guard<std::mutex> lock(*mu_);
    (*out_)[u].assign(adj, adj + n);
  }

 private:
  std::map<VertexId, std::vector<VertexId>>* out_;
  std::mutex* mu_;
};

/// Clears the process-wide storage failure hook on scope exit, so a failing
/// test cannot poison later ones.
struct IoHookGuard {
  ~IoHookGuard() { storage::IoFailureHookRef() = nullptr; }
};

FaultPlan MustParse(const std::string& text) {
  FaultPlan plan;
  Status s = FaultPlan::Parse(text, &plan);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return plan;
}

// ---------------------------------------------------------------------------
// Plan grammar.

TEST(FaultPlanTest, ParsesFullGrammar) {
  FaultPlan plan = MustParse(
      "seed=7, m3:crash@chunk=120, m1:slow@2x, *:crash@p=0.001, "
      "m0:die@chunk=40, m2:flaky@p=0.25, m4:iofail@chunk=9, "
      "m5:crash@shuffle=2");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 7u);

  EXPECT_EQ(plan.rules[0].machine, 3);
  EXPECT_EQ(plan.rules[0].action, FaultAction::kCrash);
  EXPECT_EQ(plan.rules[0].at_chunk, 120u);

  EXPECT_EQ(plan.rules[1].machine, 1);
  EXPECT_EQ(plan.rules[1].action, FaultAction::kSlow);
  EXPECT_DOUBLE_EQ(plan.rules[1].slow_factor, 2.0);

  EXPECT_EQ(plan.rules[2].machine, -1);  // '*'
  EXPECT_DOUBLE_EQ(plan.rules[2].probability, 0.001);

  EXPECT_EQ(plan.rules[3].action, FaultAction::kDie);
  EXPECT_EQ(plan.rules[4].action, FaultAction::kFlaky);
  EXPECT_EQ(plan.rules[5].action, FaultAction::kIoFail);
  EXPECT_EQ(plan.rules[6].at_shuffle, 2u);
}

TEST(FaultPlanTest, RejectsMalformedClauses) {
  const char* bad[] = {
      "m1",                  // no action
      "m1:crash",            // no trigger
      "m1:crash@chunk=0",    // ordinal must be positive
      "m1:crash@p=1.5",      // probability out of range
      "m1:crash@p=0",        // zero probability never fires
      "m1:slow@0.5x",        // slowdown below 1
      "m1:slow@2",           // missing the 'x'
      "m1:die@p=0.1",        // die must be deterministic
      "m1:flaky@shuffle=1",  // only crash has a shuffle trigger
      "m1:explode@chunk=1",  // unknown verb
      "q1:crash@chunk=1",    // bad target
      "seed=notanumber",
  };
  for (const char* text : bad) {
    FaultPlan plan;
    EXPECT_FALSE(FaultPlan::Parse(text, &plan).ok()) << text;
  }
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  FaultPlan plan =
      MustParse("seed=99,m2:crash@chunk=5,*:flaky@p=0.125,m0:slow@3x");
  FaultPlan reparsed = MustParse(plan.ToString());
  EXPECT_EQ(reparsed.seed, plan.seed);
  ASSERT_EQ(reparsed.rules.size(), plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    EXPECT_EQ(reparsed.rules[i].ToString(), plan.rules[i].ToString());
  }
}

// ---------------------------------------------------------------------------
// Injector determinism.

TEST(FaultInjectorTest, ProbabilisticScheduleIsDeterministic) {
  auto schedule = [](std::uint64_t seed) {
    FaultPlan plan = MustParse("m0:flaky@p=0.2");
    plan.seed = seed;
    FaultInjector injector(std::move(plan), 2);
    std::vector<bool> fired;
    for (int i = 0; i < 512; ++i) {
      fired.push_back(injector.OnChunkBoundary(0).kind ==
                      Decision::Kind::kTransient);
    }
    return fired;
  };
  std::vector<bool> a = schedule(7);
  EXPECT_EQ(a, schedule(7));  // same seed: identical injected schedule
  EXPECT_NE(a, schedule(8));  // different seed: different schedule
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
}

TEST(FaultInjectorTest, DeterministicChunkTriggerAndDeadStickiness) {
  FaultInjector injector(MustParse("m1:crash@chunk=3"), 4);
  EXPECT_EQ(injector.OnChunkBoundary(1).kind, Decision::Kind::kNone);
  EXPECT_EQ(injector.OnChunkBoundary(1).kind, Decision::Kind::kNone);
  EXPECT_EQ(injector.OnChunkBoundary(1).kind, Decision::Kind::kCrash);
  EXPECT_TRUE(injector.machine_dead(1));
  // Dead machines stay dead; other machines are untouched.
  EXPECT_EQ(injector.OnChunkBoundary(1).kind, Decision::Kind::kCrash);
  EXPECT_EQ(injector.OnChunkBoundary(0).kind, Decision::Kind::kNone);
  EXPECT_EQ(injector.machines_alive(), 3);
}

TEST(FaultInjectorTest, SlowRuleAnnotatesWithoutConsuming) {
  FaultInjector injector(MustParse("m0:slow@2x,m0:crash@chunk=2"), 1);
  Decision first = injector.OnChunkBoundary(0);
  EXPECT_EQ(first.kind, Decision::Kind::kNone);
  EXPECT_DOUBLE_EQ(first.slow_factor, 2.0);
  EXPECT_EQ(injector.OnChunkBoundary(0).kind, Decision::Kind::kCrash);
}

// ---------------------------------------------------------------------------
// Crash recovery: output is bit-identical to a fault-free run.

std::map<VertexId, std::vector<VertexId>> ReferenceGraph(
    core::TrillionGConfig config) {
  config.num_workers = 1;
  config.fault_injector = nullptr;
  std::map<VertexId, std::vector<VertexId>> out;
  std::mutex mu;
  LockedMapSink sink(&out, &mu);
  core::GenerateToSink(config, &sink);
  return out;
}

TEST(FaultRecoveryTest, CrashedMachineChunksAreRecoveredBitIdentical) {
  for (core::Precision precision :
       {core::Precision::kDouble, core::Precision::kDoubleDouble}) {
    core::TrillionGConfig config;
    config.scale = 10;
    config.edge_factor = 8;
    config.rng_seed = 321;
    config.precision = precision;
    const std::map<VertexId, std::vector<VertexId>> reference =
        ReferenceGraph(config);

    config.num_workers = 4;
    config.chunks_per_worker = 8;
    // Boundary 1 fires at each doomed worker's FIRST injector consultation,
    // before it takes any work — deterministic regardless of how fast the
    // survivors drain the queues. (Recovery-queue traffic specifically is
    // pinned by ClusterRunSurvivesMachineCrash, where steal domains make it
    // the only path.)
    FaultInjector injector(MustParse("m1:crash@chunk=1,m2:crash@chunk=1"),
                           config.num_workers);
    config.fault_injector = &injector;

    std::map<VertexId, std::vector<VertexId>> merged;
    std::mutex mu;
    core::GenerateStats stats = core::Generate(
        config, [&](int, VertexId, VertexId) {
          return std::make_unique<LockedMapSink>(&merged, &mu);
        });
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(injector.machines_alive(), 2);
    // Every chunk still ran exactly once, all on the two survivors.
    EXPECT_EQ(stats.sched_chunks,
              static_cast<std::uint64_t>(config.num_workers) *
                  config.chunks_per_worker);
  }
}

TEST(FaultRecoveryTest, ClusterRunSurvivesMachineCrash) {
  core::TrillionGConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  config.rng_seed = 11;
  const std::map<VertexId, std::vector<VertexId>> reference =
      ReferenceGraph(config);

  cluster::SimCluster sim({2, 2, 0, {}});
  FaultInjector injector(MustParse("m1:crash@chunk=2"), sim.num_machines());
  sim.set_fault_injector(&injector);

  std::map<VertexId, std::vector<VertexId>> merged;
  std::mutex mu;
  cluster::ClusterGenerateStats stats = cluster::GenerateOnCluster(
      &sim, config, [&](int, VertexId, VertexId) {
        return std::make_unique<LockedMapSink>(&merged, &mu);
      });
  EXPECT_EQ(merged, reference);
  EXPECT_GT(stats.generate.sched_recovered, 0u);
}

TEST(FaultRecoveryTest, AllMachinesCrashedThrowsFaultError) {
  core::TrillionGConfig config;
  config.scale = 9;
  config.num_workers = 2;
  config.chunks_per_worker = 4;
  FaultInjector injector(MustParse("*:crash@chunk=1"), config.num_workers);
  config.fault_injector = &injector;
  std::map<VertexId, std::vector<VertexId>> merged;
  std::mutex mu;
  EXPECT_THROW(core::Generate(config,
                              [&](int, VertexId, VertexId) {
                                return std::make_unique<LockedMapSink>(
                                    &merged, &mu);
                              }),
               FaultError);
}

TEST(FaultRecoveryTest, EnvPlanArmsGenerate) {
  ::setenv("TG_FAULT_PLAN", "m1:crash@chunk=1", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("TG_FAULT_PLAN"); }
  } guard;
  core::TrillionGConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  config.rng_seed = 5;
  const std::map<VertexId, std::vector<VertexId>> reference =
      ReferenceGraph(config);
  config.num_workers = 2;
  std::map<VertexId, std::vector<VertexId>> merged;
  std::mutex mu;
  obs::Counter* injected = obs::GetCounter("fault.injected");
  const std::uint64_t before = injected->value();
  core::Generate(config, [&](int, VertexId, VertexId) {
    return std::make_unique<LockedMapSink>(&merged, &mu);
  });
  EXPECT_EQ(merged, reference);
  // The env-armed injector fired: machine 1's crash was injected even
  // though the caller never constructed a FaultInjector.
  EXPECT_GE(injected->value() - before, 1u);
}

// ---------------------------------------------------------------------------
// RunParallel aggregates every worker failure (satellite bugfix).

TEST(FaultRecoveryTest, RunParallelCountsEveryWorkerFailure) {
  obs::Counter* failures = obs::GetCounter("cluster.worker_failures");
  const std::uint64_t before = failures->value();
  cluster::SimCluster sim({2, 2, 0, {}});
  EXPECT_THROW(sim.RunParallel([](int w) {
    if (w == 1 || w == 3) throw std::runtime_error("boom " + std::to_string(w));
  }),
               std::runtime_error);
  EXPECT_EQ(failures->value() - before, 2u);
}

// ---------------------------------------------------------------------------
// Shuffle-heavy recovery cost: a crash during a collective charges
// re-transfer wire time instead of recomputation (fig14 asymmetry).

TEST(FaultRecoveryTest, ShuffleCrashChargesRetransfer) {
  auto make_outbox = [] {
    std::vector<std::vector<std::vector<std::uint64_t>>> outbox(2);
    outbox[0].resize(2);
    outbox[1].resize(2);
    outbox[0][1].assign(1 << 16, 1);  // cross-machine payload
    return outbox;
  };
  cluster::SimCluster baseline(
      {2, 1, 0, cluster::NetworkModel::OneGigabitEthernet()});
  baseline.Shuffle(make_outbox());
  const double clean_seconds = baseline.network_seconds();
  ASSERT_GT(clean_seconds, 0.0);

  obs::Counter* retransfers = obs::GetCounter("fault.shuffle_retransfers");
  const std::uint64_t before = retransfers->value();
  cluster::SimCluster faulty(
      {2, 1, 0, cluster::NetworkModel::OneGigabitEthernet()});
  FaultInjector injector(MustParse("m1:crash@shuffle=1"),
                         faulty.num_machines());
  faulty.set_fault_injector(&injector);
  faulty.Shuffle(make_outbox());
  EXPECT_GT(faulty.network_seconds(), clean_seconds * 1.5);
  EXPECT_EQ(retransfers->value() - before, 1u);
}

// ---------------------------------------------------------------------------
// Format writers stop accepting edges after an I/O error (satellite bugfix).

TEST(WriterShortCircuitTest, TsvFreezesAfterInjectedIoError) {
  IoHookGuard guard;
  const std::string path = ::testing::TempDir() + "tg_fault_sc.tsv";
  format::TsvWriter writer(path);
  const VertexId adj[3] = {1, 2, 3};
  writer.ConsumeScope(0, adj, 3);
  std::string token;
  ASSERT_TRUE(writer.CommitState(&token).ok());
  storage::IoFailureHookRef() = [](const std::string&) { return true; };
  writer.ConsumeScope(1, adj, 3);
  EXPECT_FALSE(writer.CommitState(&token).ok());  // flush hits the bad disk
  storage::IoFailureHookRef() = nullptr;
  const std::uint64_t frozen = writer.bytes_written();
  writer.ConsumeScope(2, adj, 3);  // must be dropped, not buffered
  writer.WriteEdge(7, 8);
  EXPECT_EQ(writer.bytes_written(), frozen);
  EXPECT_FALSE(writer.status().ok());
  std::remove(path.c_str());
}

TEST(WriterShortCircuitTest, Adj6FreezesAfterInjectedIoError) {
  IoHookGuard guard;
  const std::string path = ::testing::TempDir() + "tg_fault_sc.adj6";
  format::Adj6Writer writer(path);
  const VertexId adj[2] = {4, 5};
  writer.ConsumeScope(0, adj, 2);
  std::string token;
  ASSERT_TRUE(writer.CommitState(&token).ok());
  storage::IoFailureHookRef() = [](const std::string&) { return true; };
  writer.ConsumeScope(1, adj, 2);
  EXPECT_FALSE(writer.CommitState(&token).ok());
  storage::IoFailureHookRef() = nullptr;
  const std::uint64_t frozen = writer.bytes_written();
  writer.ConsumeScope(2, adj, 2);
  EXPECT_EQ(writer.bytes_written(), frozen);
  EXPECT_FALSE(writer.status().ok());
  std::remove(path.c_str());
}

TEST(WriterShortCircuitTest, Csr6FreezesAfterInjectedIoError) {
  IoHookGuard guard;
  const std::string path = ::testing::TempDir() + "tg_fault_sc.csr6";
  {
    format::Csr6Writer writer(path, 0, 8);
    const VertexId adj[2] = {4, 5};
    writer.ConsumeScope(0, adj, 2);
    std::string token;
    ASSERT_TRUE(writer.CommitState(&token).ok());
    storage::IoFailureHookRef() = [](const std::string&) { return true; };
    writer.ConsumeScope(1, adj, 2);
    EXPECT_FALSE(writer.CommitState(&token).ok());
    storage::IoFailureHookRef() = nullptr;
    const std::uint64_t frozen = writer.bytes_written();
    writer.ConsumeScope(2, adj, 2);
    EXPECT_EQ(writer.bytes_written(), frozen);
    EXPECT_FALSE(writer.status().ok());
  }
  std::remove(path.c_str());
  std::remove(format::Csr6Writer::SidecarPath(path).c_str());
}

constexpr storage::IoMode kModes[] = {storage::IoMode::kSync,
                                      storage::IoMode::kAsync};

// A latched write error fails the run: each writer's Finish() returns it
// and Generate reports it, on the one-worker path and the scheduler path,
// whichever thread writes the shard.
TEST(WriterShortCircuitTest, GenerateReportsALatchedWriteError) {
  IoHookGuard guard;
  for (const storage::IoMode mode : kModes) {
    for (const int workers : {1, 2}) {
      core::TrillionGConfig config;
      config.scale = 12;
      config.edge_factor = 8;
      config.num_workers = workers;
      const std::string prefix = ::testing::TempDir() + "tg_fault_latched";
      auto shard = [&](int w) { return prefix + std::to_string(w) + ".adj6"; };
      auto run = [&] {
        return core::Generate(config, [&](int w, VertexId, VertexId) {
          return std::make_unique<format::Adj6Writer>(shard(w), mode);
        });
      };
      EXPECT_TRUE(run().sink_status.ok()) << workers;
      const std::string bad = shard(workers - 1);
      storage::IoFailureHookRef() = [bad](const std::string& path) {
        return path == bad;
      };
      const core::GenerateStats stats = run();
      storage::IoFailureHookRef() = nullptr;
      EXPECT_FALSE(stats.cancelled);
      EXPECT_EQ(stats.sink_status.code(), Status::Code::kIoError) << workers;
      EXPECT_NE(stats.sink_status.ToString().find(bad), std::string::npos)
          << stats.sink_status.ToString();
      for (int w = 0; w < workers; ++w) std::remove(shard(w).c_str());
    }
  }
}

// `m1:iofail` kills machine 1's disk only: shard w1 fails and the run
// reports it, while machine 0's shard w0 keeps the bytes of a clean run.
// Both drivers report it, under both writer modes.
TEST(WriterShortCircuitTest, MachineDiskFaultFailsOnlyItsShard) {
  const std::string prefix = ::testing::TempDir() + "tg_fault_m1";
  auto shard = [&](const std::string& run, int w) {
    return prefix + "_" + run + ".w" + std::to_string(w) + ".adj6";
  };
  // One run of `driver` writing shards `run` under `mode`; `plan` empty for
  // a clean run.
  auto generate = [&](const std::string& driver, const std::string& run,
                      storage::IoMode mode, const std::string& plan) {
    core::TrillionGConfig config;
    config.scale = 12;
    config.edge_factor = 8;
    config.num_workers = 2;
    std::unique_ptr<FaultInjector> injector;
    if (!plan.empty()) {
      injector = std::make_unique<FaultInjector>(MustParse(plan), 2);
      config.fault_injector = injector.get();
    }
    auto sinks = [&](int w, VertexId, VertexId) {
      return std::make_unique<format::Adj6Writer>(shard(run, w), mode);
    };
    if (driver == "cluster") {
      // One worker per machine, and chunks never cross machines.
      cluster::SimCluster sim({2, 1, 0, {}});
      return cluster::GenerateOnCluster(&sim, config, sinks)
          .generate.sink_status;
    }
    // Here worker 0 may steal range 1's chunks. Run worker 1 first and
    // alone, so machine 1 reaches its second chunk boundary however the
    // threads are scheduled.
    config.worker_runner = [](std::vector<std::function<void()>>& bodies) {
      for (auto body = bodies.rbegin(); body != bodies.rend(); ++body) {
        (*body)();
      }
    };
    return core::Generate(config, sinks).sink_status;
  };
  for (const char* driver : {"local", "cluster"}) {
    ASSERT_TRUE(generate(driver, "ref", storage::IoMode::kSync, "").ok());
    for (const storage::IoMode mode : kModes) {
      const std::string what = std::string(driver) +
                               (mode == storage::IoMode::kSync ? " sync"
                                                               : " async");
      const Status status = generate(driver, "cut", mode, "m1:iofail@chunk=2");
      EXPECT_EQ(status.code(), Status::Code::kIoError) << what;
      EXPECT_NE(status.ToString().find(shard("cut", 1)), std::string::npos)
          << what << ": " << status.ToString();
      EXPECT_EQ(ReadFileBytes(shard("cut", 0)), ReadFileBytes(shard("ref", 0)))
          << what;
    }
  }
  for (const char* run : {"ref", "cut"}) {
    for (int w = 0; w < 2; ++w) std::remove(shard(run, w).c_str());
  }
}

// ---------------------------------------------------------------------------
// The chunk-commit journal.

TEST(JournalTest, RoundTripIgnoresTornTail) {
  const std::string path = ::testing::TempDir() + "tg_fault_journal_rt";
  {
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(Journal::Start(path, 0xABCDEF, &journal).ok());
    ASSERT_TRUE(journal->AppendCommit(0, 0, "bytes=10").ok());
    ASSERT_TRUE(journal->AppendCommit(1, 0, "bytes=11").ok());
    ASSERT_TRUE(journal->AppendCommit(0, 1, "bytes=20").ok());
  }
  {
    // Simulate a kill mid-append: a record with no trailing newline.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "c 0 2 byt");
    std::fclose(f);
  }
  JournalState state;
  ASSERT_TRUE(LoadJournal(path, &state).ok());
  EXPECT_EQ(state.fingerprint, 0xABCDEFu);
  EXPECT_FALSE(state.done);
  ASSERT_EQ(state.ranges.size(), 2u);
  EXPECT_EQ(state.ranges.at(0).next_seq, 2u);  // torn "seq 2" record ignored
  EXPECT_EQ(state.ranges.at(0).sink_state, "bytes=20");
  EXPECT_EQ(state.ranges.at(1).next_seq, 1u);

  // Reopen truncates nothing; done marks the run complete.
  std::unique_ptr<Journal> journal;
  ASSERT_TRUE(Journal::Reopen(path, &journal).ok());
  ASSERT_TRUE(journal->AppendDone().ok());
  journal.reset();
  ASSERT_TRUE(LoadJournal(path, &state).ok());
  EXPECT_TRUE(state.done);
  std::remove(path.c_str());
}

TEST(JournalTest, LoadReportsMissingAndCorrupt) {
  JournalState state;
  EXPECT_FALSE(
      LoadJournal(::testing::TempDir() + "tg_no_such_journal", &state).ok());
  const std::string path = ::testing::TempDir() + "tg_fault_journal_bad";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fprintf(f, "NOTAJOURNAL 1 00\n");
    std::fclose(f);
  }
  EXPECT_FALSE(LoadJournal(path, &state).ok());
  std::remove(path.c_str());
}

TEST(JournalTest, FingerprintCoversEveryOutputShapingParameter) {
  core::TrillionGConfig config;
  const std::uint64_t base = ConfigFingerprint(config, "adj6");
  EXPECT_EQ(base, ConfigFingerprint(config, "adj6"));  // stable
  EXPECT_NE(base, ConfigFingerprint(config, "tsv"));
  core::TrillionGConfig changed = config;
  changed.rng_seed ^= 1;
  EXPECT_NE(base, ConfigFingerprint(changed, "adj6"));
  changed = config;
  changed.num_workers += 1;  // changes shard layout and chunk numbering
  EXPECT_NE(base, ConfigFingerprint(changed, "adj6"));
  changed = config;
  changed.precision = core::Precision::kDoubleDouble;
  EXPECT_NE(base, ConfigFingerprint(changed, "adj6"));
}

// ---------------------------------------------------------------------------
// Crash / resume round trips: an interrupted run continued from its commit
// tokens produces byte-identical files, for every format.

struct CommitLog {
  std::mutex mu;
  std::map<int, std::pair<std::uint32_t, std::string>> tokens;
};

core::TrillionGConfig ResumeBaseConfig() {
  core::TrillionGConfig config;
  config.scale = 9;
  config.edge_factor = 8;
  config.rng_seed = 77;
  config.num_workers = 2;
  config.chunks_per_worker = 6;
  return config;
}

std::function<void(const core::Chunk&, core::ScopeSink*)> CommitHook(
    CommitLog* log) {
  return [log](const core::Chunk& chunk, core::ScopeSink* sink) {
    auto* resumable = dynamic_cast<core::ResumableSink*>(sink);
    ASSERT_NE(resumable, nullptr);
    std::string token;
    if (!resumable->CommitState(&token).ok()) return;
    std::lock_guard<std::mutex> lock(log->mu);
    log->tokens[chunk.range] = {chunk.seq + 1, token};
  };
}

/// One crash/resume round trip: generate reference shards, run the same
/// config under an all-machines-crash plan while logging commit tokens,
/// then resume from the tokens and require byte-identical shards.
void CrashResumeRoundTrip(
    const std::string& format,
    const std::function<std::unique_ptr<core::ScopeSink>(
        const std::string& path, VertexId lo, VertexId hi)>& fresh,
    const std::function<std::unique_ptr<core::ScopeSink>(
        const std::string& path, VertexId lo, VertexId hi,
        const std::string& state)>& resumed) {
  const core::TrillionGConfig base = ResumeBaseConfig();
  const std::string dir = ::testing::TempDir();
  auto shard = [&](const std::string& prefix, int worker) {
    return dir + "tg_fault_" + prefix + ".w" + std::to_string(worker) + "." +
           format;
  };

  // Reference: one uninterrupted run.
  {
    core::TrillionGConfig config = base;
    core::Generate(config, [&](int w, VertexId lo, VertexId hi) {
      return fresh(shard("ref", w), lo, hi);
    });
  }

  // Interrupted run: both machines crash after a few committed chunks.
  CommitLog log;
  {
    core::TrillionGConfig config = base;
    FaultInjector injector(MustParse("m0:crash@chunk=4,m1:crash@chunk=3"),
                           config.num_workers);
    config.fault_injector = &injector;
    config.chunk_commit_hook = CommitHook(&log);
    EXPECT_THROW(
        core::Generate(config,
                       [&](int w, VertexId lo, VertexId hi) {
                         return fresh(shard("cut", w), lo, hi);
                       }),
        FaultError);
  }
  ASSERT_FALSE(log.tokens.empty());

  // Resume: continue exactly where the committed tokens left off.
  {
    core::TrillionGConfig config = base;
    config.resume_next_seq.assign(config.num_workers, 0);
    for (const auto& [range, entry] : log.tokens) {
      config.resume_next_seq[range] = entry.first;
    }
    config.chunk_commit_hook = CommitHook(&log);
    core::Generate(config, [&](int w, VertexId lo, VertexId hi)
                               -> std::unique_ptr<core::ScopeSink> {
      const auto it = log.tokens.find(w);
      if (it != log.tokens.end()) {
        return resumed(shard("cut", w), lo, hi, it->second.second);
      }
      return fresh(shard("cut", w), lo, hi);
    });
  }

  for (int w = 0; w < base.num_workers; ++w) {
    EXPECT_EQ(ReadFileBytes(shard("cut", w)), ReadFileBytes(shard("ref", w)))
        << format << " shard " << w << " diverged after resume";
    std::remove(shard("cut", w).c_str());
    std::remove(shard("ref", w).c_str());
    if (format == "csr6") {
      std::remove(format::Csr6Writer::SidecarPath(shard("cut", w)).c_str());
      std::remove(format::Csr6Writer::SidecarPath(shard("ref", w)).c_str());
    }
  }
}

TEST(ResumeTest, TsvCrashResumeRoundTrip) {
  CrashResumeRoundTrip(
      "tsv",
      [](const std::string& path, VertexId, VertexId) {
        return std::make_unique<format::TsvWriter>(path);
      },
      [](const std::string& path, VertexId, VertexId,
         const std::string& state) {
        return std::make_unique<format::TsvWriter>(path, false,
                                                   core::ResumeFrom{state});
      });
}

TEST(ResumeTest, Adj6CrashResumeRoundTrip) {
  CrashResumeRoundTrip(
      "adj6",
      [](const std::string& path, VertexId, VertexId) {
        return std::make_unique<format::Adj6Writer>(path);
      },
      [](const std::string& path, VertexId, VertexId,
         const std::string& state) {
        return std::make_unique<format::Adj6Writer>(path,
                                                    core::ResumeFrom{state});
      });
}

TEST(ResumeTest, Csr6CrashResumeRoundTrip) {
  CrashResumeRoundTrip(
      "csr6",
      [](const std::string& path, VertexId lo, VertexId hi) {
        return std::make_unique<format::Csr6Writer>(path, lo, hi);
      },
      [](const std::string& path, VertexId lo, VertexId hi,
         const std::string& state) {
        return std::make_unique<format::Csr6Writer>(path, lo, hi,
                                                    core::ResumeFrom{state});
      });
}

TEST(ResumeTest, ResumedWriterRejectsMalformedToken) {
  const std::string path = ::testing::TempDir() + "tg_fault_badtoken.adj6";
  format::Adj6Writer writer(path, core::ResumeFrom{"garbage"});
  EXPECT_FALSE(writer.status().ok());
  format::Csr6Writer csr(path, 0, 16, core::ResumeFrom{"bytes=1,next=2"});
  EXPECT_FALSE(csr.status().ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// die@chunk: the process is hard-killed; a new process resumes from the
// journal file and reproduces the uninterrupted bytes (the gen_cli --resume
// contract, exercised at the library level). The killed and resumed runs
// write inline (IoMode::kSync); the equivalence matrix's chaos.resume row
// covers gen_cli's async writers.

using ResumeDeathTest = ::testing::Test;

TEST(ResumeDeathTest, DieThenResumeFromJournalIsByteIdentical) {
  // One worker so the schedule is fixed: it must take its own six chunks in
  // order, so die@chunk=3 always lands after exactly two committed chunks.
  // (With two workers the survivor can drain every deque before the doomed
  // worker reaches its third boundary, and the die never fires.)
  core::TrillionGConfig base = ResumeBaseConfig();
  base.num_workers = 1;
  const std::string dir = ::testing::TempDir();
  const std::string journal_path = dir + "tg_fault_die.journal";
  auto shard = [&](const std::string& prefix, int worker) {
    return dir + "tg_fault_die_" + prefix + ".w" + std::to_string(worker) +
           ".adj6";
  };
  const std::uint64_t fingerprint = ConfigFingerprint(base, "adj6");

  // Reference shards.
  {
    core::TrillionGConfig config = base;
    core::Generate(config, [&](int w, VertexId, VertexId) {
      return std::make_unique<format::Adj6Writer>(shard("ref", w));
    });
  }

  // Child process: journals every commit, then dies by injection. Files the
  // child flushed survive its _Exit, exactly like a kill -9.
  auto child = [&]() {
    core::TrillionGConfig config = base;
    FaultPlan plan = MustParse("m0:die@chunk=3");
    FaultInjector injector(std::move(plan), config.num_workers);
    config.fault_injector = &injector;
    std::unique_ptr<Journal> journal;
    if (!Journal::Start(journal_path, fingerprint, &journal).ok()) {
      std::_Exit(1);
    }
    Journal* raw = journal.get();
    config.chunk_commit_hook = [raw](const core::Chunk& chunk,
                                     core::ScopeSink* sink) {
      auto* resumable = dynamic_cast<core::ResumableSink*>(sink);
      std::string token;
      if (resumable != nullptr && resumable->CommitState(&token).ok()) {
        raw->AppendCommit(chunk.range, chunk.seq, token);
      }
    };
    core::Generate(config, [&](int w, VertexId, VertexId) {
      return std::make_unique<format::Adj6Writer>(shard("cut", w),
                                                  storage::IoMode::kSync);
    });
    std::_Exit(0);  // not reached: the injector kills the run first
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(kKilledExitCode), "");

  // Parent: load the journal the dead child left and finish the run.
  JournalState state;
  ASSERT_TRUE(LoadJournal(journal_path, &state).ok());
  EXPECT_EQ(state.fingerprint, fingerprint);
  EXPECT_FALSE(state.done);
  ASSERT_EQ(state.ranges.size(), 1u);
  EXPECT_EQ(state.ranges.at(0).next_seq, 2u);

  {
    core::TrillionGConfig config = base;
    config.resume_next_seq.assign(config.num_workers, 0);
    for (const auto& [range, range_state] : state.ranges) {
      config.resume_next_seq[range] = range_state.next_seq;
    }
    core::Generate(config, [&](int w, VertexId, VertexId)
                               -> std::unique_ptr<core::ScopeSink> {
      const auto it = state.ranges.find(w);
      if (it != state.ranges.end()) {
        return std::make_unique<format::Adj6Writer>(
            shard("cut", w), core::ResumeFrom{it->second.sink_state},
            storage::IoMode::kSync);
      }
      return std::make_unique<format::Adj6Writer>(shard("cut", w),
                                                  storage::IoMode::kSync);
    });
  }

  for (int w = 0; w < base.num_workers; ++w) {
    EXPECT_EQ(ReadFileBytes(shard("cut", w)), ReadFileBytes(shard("ref", w)))
        << "shard " << w;
    std::remove(shard("cut", w).c_str());
    std::remove(shard("ref", w).c_str());
  }
  std::remove(journal_path.c_str());
}

// ---------------------------------------------------------------------------
// Observability: the injected schedule lands in the run report.

TEST(FaultReportTest, InjectedScheduleAppearsInRunReport) {
  obs::Registry::Global().Reset();
  core::TrillionGConfig config;
  config.scale = 9;
  config.num_workers = 2;
  // Slow machine 0 so it sleeps (yielding the CPU) after every chunk: the
  // doomed machine reliably reaches its second chunk boundary and orphans
  // its remaining deque onto the recovery queue before the survivor can
  // steal it dry. Without the slowdown, scale-9 chunks are so fast that
  // machine 0 can drain both deques first, leaving nothing to recover.
  FaultInjector injector(MustParse("m0:slow@100x,m1:crash@chunk=2"),
                         config.num_workers);
  config.fault_injector = &injector;
  std::map<VertexId, std::vector<VertexId>> merged;
  std::mutex mu;
  core::Generate(config, [&](int, VertexId, VertexId) {
    return std::make_unique<LockedMapSink>(&merged, &mu);
  });

  obs::RunReport report = obs::RunReport::Collect();
  ASSERT_FALSE(report.fault.empty());
  EXPECT_EQ(report.fault[0].kind, "fault.crash");
  EXPECT_EQ(report.fault[0].machine, 1);
  EXPECT_EQ(report.fault[0].ordinal, 2u);
  EXPECT_GE(report.counters["fault.injected"], 1u);
  EXPECT_GE(report.counters["fault.injected_crashes"], 1u);
  EXPECT_GE(report.counters["fault.recovered_chunks"], 1u);

  // The fault section survives a JSON round trip and shows in the table.
  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::FromJson(report.ToJson(), &parsed).ok());
  ASSERT_EQ(parsed.fault.size(), report.fault.size());
  EXPECT_EQ(parsed.fault[0].kind, report.fault[0].kind);
  EXPECT_EQ(parsed.fault[0].detail, report.fault[0].detail);
  EXPECT_NE(report.ToTable().find("-- fault"), std::string::npos);
}

}  // namespace
}  // namespace tg::fault
