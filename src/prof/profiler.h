// prof/profiler.h — tg::prof: an in-process, no-dependency sampling
// profiler. A process-wide CPU-time timer (timer_create + SIGPROF) fires at
// a fixed rate; the signal handler captures a frame-pointer call stack
// (async-signal-safe, bounded depth) into a per-thread lock-free sample
// ring modeled on obs/trace.cc's seqlock rings. Each sample is tagged with
// the current obs phase, the simulated machine, and the worker id, so
// profiles slice along the same dimensions as the metrics. A collector
// thread drains the rings and deduplicates stacks into a hash-interned
// stack table; prof/folded.h renders the table as flamegraph.pl-compatible
// collapsed stacks and as the `prof` section of a RunReport.
//
// Off-CPU time rides along: subsystems that measure blocking (the async
// writer's producer stall, the scheduler's steal-wait) call RecordStall,
// and the folded output shows that time as synthetic `[stall:<kind>]`
// frames next to the on-CPU stacks.
//
// The profiler only *reads* program state — generated output is
// bit-identical with sampling on or off (the `prof` equivalence row in
// tests/equivalence_matrix.py proves it).
// docs/OBSERVABILITY.md "Profiling" documents usage and the output formats.
#ifndef TRILLIONG_PROF_PROFILER_H_
#define TRILLIONG_PROF_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tg::prof {

/// Frames kept per sample. Deeper stacks are truncated at the leaf end's
/// 48th ancestor; the root-most frames are the ones lost.
inline constexpr int kMaxStackDepth = 48;

/// Slots per per-thread sample ring. The collector drains every ~50 ms; at
/// the default 99 Hz a ring holds many seconds of samples, so drops only
/// happen when the collector is starved.
inline constexpr int kRingSlots = 256;

/// Sample rings available. Threads self-register (explicitly via
/// EnsureThreadRegistered, or lazily from the signal handler); a thread
/// that registered explicitly returns its ring when it exits. Threads
/// sampled while every ring is held go to the drop counter instead.
inline constexpr int kMaxProfiledThreads = 64;

struct ProfilerOptions {
  /// Samples per second of *process CPU time* (99 by default — the
  /// conventional off-by-one from 100 so sampling never aliases against
  /// 10 ms-periodic work).
  int hz = 99;
};

/// Installs the SIGPROF handler, arms the CPU-time timer, and starts the
/// collector thread. Fails if already running or if the OS refuses the
/// timer. Restarting after StopProfiler discards the previous session's
/// samples.
Status StartProfiler(const ProfilerOptions& options = {});

/// Disarms the timer, drains every ring one final time, and joins the
/// collector. The aggregated profile remains readable (TakeSnapshot,
/// ExportTo, RenderFolded) until the next StartProfiler. Idempotent.
void StopProfiler();

bool ProfilerRunning();

struct ProfilerStatus {
  bool running = false;
  int hz = 0;
  std::uint64_t samples = 0;  ///< collected into the stack table
  std::uint64_t dropped = 0;  ///< overwritten or ring-less, never collected
  int threads = 0;            ///< most sample rings held at once
  double ring_occupancy = 0.0;  ///< max undrained fraction across rings
};
ProfilerStatus GetStatus();

/// The deduplicated profile: one row per distinct
/// (stack, phase, machine, worker) with its sample count, plus the off-CPU
/// stall totals converted to sample-equivalents at the profiler rate.
struct ProfileSnapshot {
  struct Stack {
    std::uint32_t stack_id = 0;  ///< stable within one profiler session
    std::vector<std::uintptr_t> pcs;  ///< leaf first
    const char* phase = "";
    int machine = -1;
    int worker = -1;
    std::uint64_t count = 0;
  };
  struct Stall {
    std::string kind;  ///< "writer", "steal_wait", "idle", ...
    const char* phase = "";
    int machine = -1;
    std::uint64_t count = 0;  ///< seconds * hz, rounded
  };
  std::vector<Stack> stacks;
  std::vector<Stall> stalls;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  int hz = 0;
};

/// Drains every ring and returns the cumulative aggregate since the last
/// StartProfiler. Safe from any thread; empty when never started.
ProfileSnapshot TakeSnapshot();

/// Records `seconds` of off-CPU time under `[stall:<kind>]`, attributed to
/// the current obs phase. `machine` defaults to the calling thread's
/// simulated machine tag; pass an explicit id when recording on behalf of
/// another thread (the scheduler's post-join idle accounting does). No-op
/// while the profiler is not running; `kind` must be a string literal.
void RecordStall(const char* kind, double seconds, int machine = -2);

/// Registers the calling thread for full-depth sampling: grabs a sample
/// ring, resolves the thread's stack bounds (the unwinder refuses to walk
/// without them), and tags future samples with `worker_id`. The ring goes
/// back to the pool when the thread exits, so short-lived threads should
/// call this. Threads that skip it still get leaf-only samples via lazy
/// in-handler registration, but keep their ring until the next
/// StartProfiler.
void EnsureThreadRegistered(int worker_id = -1);

/// Test hook: captures the calling thread's stack with the same bounded
/// frame-pointer walk the signal handler uses (minus the signal). Returns
/// the depth written into `pcs`. Works without a running profiler.
int CaptureStack(std::uintptr_t* pcs, int max_depth);

}  // namespace tg::prof

#endif  // TRILLIONG_PROF_PROFILER_H_
