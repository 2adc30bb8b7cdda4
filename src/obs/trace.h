// obs/trace.h — timeline tracing. Where obs/metrics.h answers "how much",
// the trace answers "when": per-thread lock-free ring buffers collect
// timestamped begin/end/instant/counter events, drained on demand into
// Chrome Trace Event Format JSON that opens directly in Perfetto or
// chrome://tracing. The paper's temporal claims (TrillionG overlaps
// generation with output and never stalls on a shuffle barrier, Figures
// 11b/14) are only visible on this timeline, not in end-of-run totals.
//
// Cost model: with tracing disabled (the default) every Trace* helper is one
// relaxed atomic load and touches no clock. Enabled, an event is one clock
// read plus a handful of relaxed atomic stores into a buffer owned by the
// emitting thread — no locks, no allocation after the buffer exists. Buffers
// are bounded rings: when a thread outruns its capacity the oldest events
// are overwritten and counted as dropped.
#ifndef TRILLIONG_OBS_TRACE_H_
#define TRILLIONG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tg::obs {

enum class TraceEventType : std::int32_t {
  kBegin = 0,    ///< opens a duration slice ("B")
  kEnd = 1,      ///< closes the innermost slice ("E")
  kInstant = 2,  ///< zero-duration marker ("i")
  kCounter = 3,  ///< sampled value on a counter track ("C")
  kWire = 4,     ///< simulated network charge; value = simulated seconds
};

/// One trace event. `name` must be a string literal (or otherwise outlive
/// every drain) — the buffer stores the pointer, never a copy.
struct TraceEvent {
  std::int64_t ts_ns = 0;  ///< nanoseconds since the trace epoch
  const char* name = nullptr;
  TraceEventType type = TraceEventType::kInstant;
  std::int32_t machine = -1;  ///< simulated machine tag (-1: untagged)
  double value = 0.0;         ///< counter value / simulated wire seconds
};

/// Process-wide trace switch, independent of obs::Enabled() (span *trace*
/// events additionally require obs::Enabled(), since spans early-out before
/// consulting the trace flag).
bool TraceEnabled();
void SetTraceEnabled(bool on);

/// Nanoseconds since the trace epoch (process start, steady clock).
std::int64_t TraceNowNs();

/// Single-writer bounded ring of trace events. The owning thread emits; any
/// other thread may drain concurrently. Slots carry a seqlock-style
/// generation counter and atomic payload fields, so a drain racing a writer
/// skips torn slots instead of blocking — writers never wait.
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  /// Appends one event, overwriting the oldest when full. Wait-free; must
  /// only be called from the owning thread.
  void Emit(const TraceEvent& event);

  /// Copies every complete, still-resident event into `out` in emission
  /// order. Safe to call from any thread while the owner keeps emitting;
  /// slots mid-overwrite are skipped. Returns the number of events appended.
  std::size_t Drain(std::vector<TraceEvent>* out) const;

  /// Total events ever emitted into this buffer.
  std::uint64_t emitted() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Events lost to ring overwrite so far (emitted minus capacity, floored).
  std::uint64_t dropped() const {
    std::uint64_t h = emitted();
    return h > capacity_ ? h - capacity_ : 0;
  }

  std::size_t capacity() const { return capacity_; }

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  struct Slot {
    /// 2*generation+1 while the writer fills the slot, 2*generation+2 once
    /// complete; a reader accepts only the latter and re-checks after
    /// copying the payload.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int32_t> type{0};
    std::atomic<std::int32_t> machine{-1};
    std::atomic<double> value{0.0};
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// The calling thread's trace buffer, created (and registered for DrainTrace)
/// on first use. Stable for the thread's lifetime; buffers outlive their
/// threads so a post-join drain sees every event.
TraceBuffer* CurrentTraceBuffer();

/// Emit helpers. All are a single relaxed load when tracing is disabled, and
/// tag events with the thread's simulated machine (obs::CurrentMachine()).
void TraceBegin(const char* name);
void TraceEnd(const char* name);
void TraceInstant(const char* name);
void TraceCounter(const char* name, double value);
/// Copies `name` into process-lifetime storage and returns the stable
/// pointer (idempotent per distinct string). For callers whose event names
/// are built at runtime — e.g. the sampler's metric names — since the ring
/// stores pointers, not copies.
const char* InternTraceName(const std::string& name);
/// Books a simulated-network charge of `simulated_seconds` onto the trace's
/// dedicated wire track (NetworkModel / SimCluster call this).
void TraceWire(const char* name, double simulated_seconds);

/// A drained, merged view of every thread's buffer.
struct TraceSnapshot {
  struct Row {
    TraceEvent event;
    int tid = 0;  ///< stable per-thread trace id (buffer registration order)
  };
  /// Sorted by timestamp; ties keep per-thread emission order.
  std::vector<Row> rows;
  std::uint64_t dropped = 0;  ///< ring-overwritten events across all threads
};

/// Drains all registered buffers (threads may keep emitting; their in-flight
/// slots are simply missed). Also publishes the total drop count to the
/// `trace.dropped_events` counter so run reports surface truncation.
TraceSnapshot DrainTrace();

/// Drops all buffered events and thread registrations and restarts the
/// trace epoch. Only safe while no instrumented thread is running; tests
/// and one-report-per-row harnesses use it alongside Registry::Reset().
void ResetTraceForTest();

/// Renders a snapshot as Chrome Trace Event Format JSON ("traceEvents"
/// array). Simulated machines become trace processes, span nesting becomes
/// nested duration events, and kWire events land on a dedicated "simulated
/// network" process whose slice durations are *simulated* seconds — real and
/// simulated time side by side. The wire process and a cumulative
/// `net.simulated_seconds` counter track are always present, even when no
/// wire event fired (a shuffle-free run shows an empty track, which is the
/// claim).
std::string TraceToChromeJson(const TraceSnapshot& snapshot);

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_TRACE_H_
