#include "prof/profiler.h"

#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

#if defined(__linux__)
#include <ucontext.h>
#endif

namespace tg::prof {

namespace {

/// One captured sample. The seqlock protocol is obs/trace.cc's: seq goes
/// odd (2h+1) while the handler writes, even (2h+2) when the slot is
/// consistent; the collector revalidates after copying and discards slots
/// the writer lapped mid-read. All payload fields are relaxed atomics so
/// the protocol is explicit to ThreadSanitizer.
struct SampleSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::int32_t> depth{0};
  std::atomic<std::int32_t> machine{-1};
  std::atomic<std::int32_t> worker{-1};
  std::atomic<const char*> phase{nullptr};
  std::atomic<std::uintptr_t> pcs[kMaxStackDepth] = {};
};

/// One thread's single-writer ring. Only the owning thread's signal handler
/// writes; only the collector reads. The writer never blocks — if the
/// collector falls behind, old samples are overwritten and counted as
/// dropped from the head/drained_head gap.
struct SampleRing {
  std::atomic<std::uint64_t> head{0};
  SampleSlot slots[kRingSlots];
  std::uint64_t drained_head = 0;  ///< collector-side only
};

/// Everything the signal handler touches. Allocated once and leaked so a
/// signal delivered after StopProfiler can never dereference freed memory.
struct ProfState {
  std::atomic<bool> sampling{false};
  /// Bumped per StartProfiler so threads caching a ring pointer from a
  /// previous session re-register instead of writing into reset rings.
  std::atomic<std::uint64_t> generation{0};
  /// Ring i is held when lease[i] equals the current generation; any other
  /// value (0 once returned, or a past session's generation) means free.
  std::atomic<std::uint64_t> lease[kMaxProfiledThreads] = {};
  /// One past the highest ring held this session: the rings to drain.
  std::atomic<int> rings_used{0};
  /// Samples lost because every ring was held (> kMaxProfiledThreads
  /// threads sampled at once).
  std::atomic<std::uint64_t> lost_no_ring{0};
  SampleRing rings[kMaxProfiledThreads];
};

std::atomic<ProfState*> g_state{nullptr};

// Per-thread registration. Stack bounds are resolved once (they never
// change for a live thread); the ring is re-acquired when the profiler
// restarts. The signal handler only reads/writes these thread_locals plus
// ProfState atomics — no locks, no allocation.
thread_local SampleRing* t_ring = nullptr;
thread_local std::uint64_t t_ring_generation = 0;
thread_local int t_worker = -1;
thread_local std::uintptr_t t_stack_lo = 0;
thread_local std::uintptr_t t_stack_hi = 0;
thread_local bool t_bounds_resolved = false;

/// Grabs (or revalidates) this thread's ring: the lowest free one.
/// Async-signal-safe: the pool is preallocated, so registration is lock-free
/// compare-exchanges plus thread_local stores. A reused ring keeps its head,
/// so the collector drains the old and new owner's samples alike. Returns
/// nullptr when every ring is held.
SampleRing* AcquireRing(ProfState* state) {
  const std::uint64_t generation =
      state->generation.load(std::memory_order_acquire);
  if (t_ring != nullptr && t_ring_generation == generation) return t_ring;
  for (int idx = 0; idx < kMaxProfiledThreads; ++idx) {
    std::uint64_t held = state->lease[idx].load(std::memory_order_relaxed);
    if (held == generation ||
        !state->lease[idx].compare_exchange_strong(
            held, generation, std::memory_order_acq_rel)) {
      continue;
    }
    int used = state->rings_used.load(std::memory_order_relaxed);
    while (used <= idx && !state->rings_used.compare_exchange_weak(
                              used, idx + 1, std::memory_order_release)) {
    }
    t_ring = &state->rings[idx];
    t_ring_generation = generation;
    return t_ring;
  }
  return nullptr;
}

/// Returns the thread's ring at thread exit. SIGPROF is blocked first: once
/// the thread can no longer take the signal it can no longer write to the
/// ring, so the ring's next owner is its only writer.
void ReleaseRing() {
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr || t_ring == nullptr) return;
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &block, nullptr);
  // A restart since the ring was taken already freed it; leave its lease.
  std::uint64_t held = t_ring_generation;
  state->lease[t_ring - state->rings].compare_exchange_strong(
      held, 0, std::memory_order_release);
  t_ring = nullptr;
}

/// Calls ReleaseRing when its thread exits. Only EnsureThreadRegistered
/// arms it: the first use of a thread_local with a destructor registers
/// that destructor with the C++ runtime, which a signal handler must not
/// do. A ring the handler takes lazily stays held until its thread
/// registers or the profiler restarts.
struct RingReturn {
  bool armed = false;
  ~RingReturn() {
    if (armed) ReleaseRing();
  }
};
thread_local RingReturn t_ring_return;

/// Bounded frame-pointer walk. `pc` is recorded as the leaf; the chain is
/// only followed when the thread's stack bounds are known (lo < hi), and
/// every frame pointer is validated — in bounds, word-aligned, strictly
/// increasing — before dereferencing, so a torn or foreign frame ends the
/// walk instead of faulting.
int WalkFrames(std::uintptr_t pc, std::uintptr_t fp, std::uintptr_t lo,
               std::uintptr_t hi, std::uintptr_t* pcs, int max_depth) {
  if (max_depth <= 0) return 0;
  int depth = 0;
  pcs[depth++] = pc;
  if (lo == 0 || hi <= lo) return depth;
  constexpr std::uintptr_t kWord = sizeof(std::uintptr_t);
  while (depth < max_depth) {
    if (fp < lo || fp + 2 * kWord > hi || (fp % kWord) != 0) break;
    const std::uintptr_t* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 4096) break;  // fell off the call chain into zeroed stack
    pcs[depth++] = ret;
    if (next_fp <= fp) break;  // frame pointers must grow toward the base
    fp = next_fp;
  }
  return depth;
}

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext_raw) {
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr || !state->sampling.load(std::memory_order_relaxed)) {
    return;
  }
  const int saved_errno = errno;
  SampleRing* ring = AcquireRing(state);
  if (ring == nullptr) {
    state->lost_no_ring.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }

  std::uintptr_t pcs[kMaxStackDepth];
  int depth = 0;
#if defined(__linux__) && defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_raw);
  depth = WalkFrames(
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]),
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]),
      t_stack_lo, t_stack_hi, pcs, kMaxStackDepth);
#elif defined(__linux__) && defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_raw);
  depth = WalkFrames(static_cast<std::uintptr_t>(uc->uc_mcontext.pc),
                     static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]),
                     t_stack_lo, t_stack_hi, pcs, kMaxStackDepth);
#else
  (void)ucontext_raw;
#endif
  if (depth == 0) {
    errno = saved_errno;
    return;
  }

  const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
  SampleSlot& slot = ring->slots[h % kRingSlots];
  slot.seq.store(2 * h + 1, std::memory_order_release);
  slot.depth.store(depth, std::memory_order_relaxed);
  slot.machine.store(obs::CurrentMachine(), std::memory_order_relaxed);
  slot.worker.store(t_worker, std::memory_order_relaxed);
  slot.phase.store(obs::CurrentPhase(), std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i) {
    slot.pcs[i].store(pcs[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * h + 2, std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
  errno = saved_errno;
}

/// Collector-side state: timer/thread lifecycle under `mu`, the aggregated
/// stack table under `table_mu`. Lock order: `mu` before `table_mu`, never
/// the reverse. Leaked like ProfState for symmetry.
struct Collector {
  std::mutex mu;
  bool running = false;
  bool stop_requested = false;
  timer_t timer{};
  std::thread thread;
  std::condition_variable cv;

  std::mutex table_mu;
  int hz = 0;
  /// Stack interning: distinct pc sequences get dense ids; stacks_by_id
  /// points into the map's (stable) keys.
  std::map<std::vector<std::uintptr_t>, std::uint32_t> intern;
  std::vector<const std::vector<std::uintptr_t>*> stacks_by_id;
  /// Sample counts keyed (stack id, phase literal, machine, worker).
  std::map<std::tuple<std::uint32_t, const void*, int, int>, std::uint64_t>
      counts;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  /// Off-CPU seconds keyed (kind, phase literal, machine).
  std::map<std::tuple<std::string, const void*, int>, double> stall_seconds;
};

Collector& GlobalCollector() {
  static Collector* collector = new Collector();  // leaked
  return *collector;
}

/// Drains every ring into the stack table. Caller holds table_mu.
void DrainIntoTables(ProfState* state, Collector& c) {
  const int num_rings = state->rings_used.load(std::memory_order_acquire);
  std::vector<std::uintptr_t> key;
  for (int r = 0; r < num_rings; ++r) {
    SampleRing& ring = state->rings[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    std::uint64_t begin = head > kRingSlots ? head - kRingSlots : 0;
    if (begin < ring.drained_head) begin = ring.drained_head;
    c.dropped += begin - ring.drained_head;
    for (std::uint64_t i = begin; i < head; ++i) {
      SampleSlot& slot = ring.slots[i % kRingSlots];
      if (slot.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
      int depth = slot.depth.load(std::memory_order_relaxed);
      if (depth < 1) depth = 1;
      if (depth > kMaxStackDepth) depth = kMaxStackDepth;
      const int machine = slot.machine.load(std::memory_order_relaxed);
      const int worker = slot.worker.load(std::memory_order_relaxed);
      const char* phase = slot.phase.load(std::memory_order_relaxed);
      key.clear();
      for (int j = 0; j < depth; ++j) {
        key.push_back(slot.pcs[j].load(std::memory_order_relaxed));
      }
      // Revalidate (read-don't-modify RMW, as in obs/trace.cc): if the
      // writer lapped us mid-copy the sequence has moved on and the copy
      // is torn — discard it.
      if (slot.seq.fetch_add(0, std::memory_order_acq_rel) != 2 * i + 2) {
        ++c.dropped;
        continue;
      }
      auto [it, inserted] =
          c.intern.emplace(key, static_cast<std::uint32_t>(c.intern.size()));
      if (inserted) c.stacks_by_id.push_back(&it->first);
      c.counts[{it->second, phase, machine, worker}] += 1;
      ++c.samples;
    }
    ring.drained_head = head;
  }
  obs::GetCounter("prof.samples")->Reset();
  obs::GetCounter("prof.samples")->Add(c.samples);
  const std::uint64_t dropped =
      c.dropped + state->lost_no_ring.load(std::memory_order_relaxed);
  obs::GetCounter("prof.dropped_samples")->Reset();
  obs::GetCounter("prof.dropped_samples")->Add(dropped);
}

void CollectorLoop(ProfState* state) {
  // The collector must never be sampled: a SIGPROF landing here could
  // interleave with a drain of its own ring. Blocking the signal also
  // biases CPU-time delivery toward the threads doing the work.
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &block, nullptr);

  Collector& c = GlobalCollector();
  std::unique_lock<std::mutex> lock(c.mu);
  while (!c.stop_requested) {
    c.cv.wait_for(lock, std::chrono::milliseconds(50),
                  [&] { return c.stop_requested; });
    lock.unlock();
    {
      std::lock_guard<std::mutex> table_lock(c.table_mu);
      DrainIntoTables(state, c);
    }
    lock.lock();
  }
}

/// Resolves (once) the calling thread's stack bounds for the unwinder.
void ResolveStackBounds() {
  if (t_bounds_resolved) return;
  t_bounds_resolved = true;
#if defined(__linux__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0 && size > 0) {
      t_stack_lo = reinterpret_cast<std::uintptr_t>(addr);
      t_stack_hi = t_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
}

}  // namespace

Status StartProfiler(const ProfilerOptions& options) {
#if !defined(__linux__)
  (void)options;
  return Status::InvalidArgument("tg::prof requires linux (timer_create)");
#else
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument("profiler rate must be in [1, 10000] Hz");
  }
  Collector& c = GlobalCollector();
  std::unique_lock<std::mutex> lock(c.mu);
  if (c.running) return Status::InvalidArgument("profiler already running");

  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr) {
    // Leaked: a SIGPROF pending across StopProfiler must never touch freed
    // memory. One allocation per process, ~7 MB, only when profiling.
    state = new ProfState();
    g_state.store(state, std::memory_order_release);
  }

  // Reset the previous session. No timer is armed and sampling is false,
  // so no handler writes concurrently.
  for (SampleRing& ring : state->rings) {
    ring.head.store(0, std::memory_order_relaxed);
    ring.drained_head = 0;
    for (SampleSlot& slot : ring.slots) {
      slot.seq.store(0, std::memory_order_relaxed);
    }
  }
  state->lost_no_ring.store(0, std::memory_order_relaxed);
  state->rings_used.store(0, std::memory_order_relaxed);
  state->generation.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> table_lock(c.table_mu);
    c.hz = options.hz;
    c.intern.clear();
    c.stacks_by_id.clear();
    c.counts.clear();
    c.samples = 0;
    c.dropped = 0;
    c.stall_seconds.clear();
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &SigprofHandler;
  // SA_RESTART: SIGPROF interrupts syscalls at the sampling rate; restart
  // them so profiled I/O paths never see spurious EINTR.
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    return Status::IoError("sigaction(SIGPROF) failed");
  }

  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &c.timer) != 0) {
    return Status::IoError("timer_create(CLOCK_PROCESS_CPUTIME_ID) failed");
  }

  // Register the launching thread before the first tick so its samples are
  // full-depth from the start.
  ResolveStackBounds();
  AcquireRing(state);

  c.stop_requested = false;
  c.thread = std::thread(CollectorLoop, state);
  state->sampling.store(true, std::memory_order_release);

  const long period_ns = 1000000000L / options.hz;
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(c.timer, 0, &its, nullptr) != 0) {
    state->sampling.store(false, std::memory_order_release);
    timer_delete(c.timer);
    c.stop_requested = true;
    lock.unlock();
    c.cv.notify_all();
    c.thread.join();
    return Status::IoError("timer_settime failed");
  }
  c.running = true;
  return Status::Ok();
#endif
}

void StopProfiler() {
  Collector& c = GlobalCollector();
  std::unique_lock<std::mutex> lock(c.mu);
  if (!c.running) return;
  ProfState* state = g_state.load(std::memory_order_acquire);
#if defined(__linux__)
  timer_delete(c.timer);
#endif
  state->sampling.store(false, std::memory_order_release);
  c.stop_requested = true;
  lock.unlock();
  c.cv.notify_all();
  c.thread.join();
  lock.lock();
  c.running = false;
  c.stop_requested = false;
  // Final drain so samples that landed between the collector's last pass
  // and the timer teardown make it into the table.
  std::lock_guard<std::mutex> table_lock(c.table_mu);
  DrainIntoTables(state, c);
}

bool ProfilerRunning() {
  Collector& c = GlobalCollector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.running;
}

ProfilerStatus GetStatus() {
  ProfilerStatus status;
  Collector& c = GlobalCollector();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    status.running = c.running;
  }
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr) return status;
  std::lock_guard<std::mutex> table_lock(c.table_mu);
  status.hz = c.hz;
  status.samples = c.samples;
  status.dropped =
      c.dropped + state->lost_no_ring.load(std::memory_order_relaxed);
  const int num_rings = state->rings_used.load(std::memory_order_acquire);
  status.threads = num_rings;
  for (int r = 0; r < num_rings; ++r) {
    const SampleRing& ring = state->rings[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t undrained =
        std::min<std::uint64_t>(head - ring.drained_head, kRingSlots);
    status.ring_occupancy =
        std::max(status.ring_occupancy,
                 static_cast<double>(undrained) / kRingSlots);
  }
  return status;
}

ProfileSnapshot TakeSnapshot() {
  ProfileSnapshot snapshot;
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr) return snapshot;
  Collector& c = GlobalCollector();
  std::lock_guard<std::mutex> table_lock(c.table_mu);
  DrainIntoTables(state, c);
  snapshot.hz = c.hz;
  snapshot.samples = c.samples;
  snapshot.dropped =
      c.dropped + state->lost_no_ring.load(std::memory_order_relaxed);
  snapshot.stacks.reserve(c.counts.size());
  for (const auto& [key, count] : c.counts) {
    const auto& [stack_id, phase, machine, worker] = key;
    ProfileSnapshot::Stack row;
    row.stack_id = stack_id;
    row.pcs = *c.stacks_by_id[stack_id];
    row.phase = static_cast<const char*>(phase);
    row.machine = machine;
    row.worker = worker;
    row.count = count;
    snapshot.stacks.push_back(std::move(row));
  }
  for (const auto& [key, seconds] : c.stall_seconds) {
    const auto& [kind, phase, machine] = key;
    ProfileSnapshot::Stall row;
    row.kind = kind;
    row.phase = static_cast<const char*>(phase);
    row.machine = machine;
    row.count = static_cast<std::uint64_t>(
        std::llround(seconds * static_cast<double>(c.hz)));
    if (row.count == 0) continue;  // below one sample-equivalent
    snapshot.stalls.push_back(std::move(row));
  }
  return snapshot;
}

void RecordStall(const char* kind, double seconds, int machine) {
  if (seconds <= 0.0) return;
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state == nullptr || !state->sampling.load(std::memory_order_relaxed)) {
    return;
  }
  if (machine == -2) machine = obs::CurrentMachine();
  const char* phase = obs::CurrentPhase();
  Collector& c = GlobalCollector();
  std::lock_guard<std::mutex> table_lock(c.table_mu);
  c.stall_seconds[{std::string(kind), phase, machine}] += seconds;
}

void EnsureThreadRegistered(int worker_id) {
  ResolveStackBounds();
  if (worker_id >= 0) t_worker = worker_id;
  t_ring_return.armed = true;
  ProfState* state = g_state.load(std::memory_order_acquire);
  if (state != nullptr) AcquireRing(state);
}

__attribute__((noinline)) int CaptureStack(std::uintptr_t* pcs,
                                           int max_depth) {
  ResolveStackBounds();
  const std::uintptr_t own_fp =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const std::uintptr_t pc =
      reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  // Start the walk at the caller's frame (own_fp holds its frame pointer),
  // so pcs[0] is the caller's pc — exactly what the handler records for an
  // interrupted thread.
  std::uintptr_t caller_fp = 0;
  if (own_fp >= t_stack_lo && own_fp + sizeof(std::uintptr_t) < t_stack_hi) {
    caller_fp = *reinterpret_cast<const std::uintptr_t*>(own_fp);
  }
  return WalkFrames(pc, caller_fp, t_stack_lo, t_stack_hi, pcs, max_depth);
}

}  // namespace tg::prof
