// obs/metrics.h — thread-safe metrics registry: monotonic counters, double
// gauges, and log2-bucketed histograms, addressed by name. The measurement
// substrate behind every figure of the evaluation (EXPERIMENTS.md): hot
// layers record what they did (edges generated, bytes shuffled, simulated
// wire seconds, peak memory) and obs::RunReport serializes one structured
// report per run. See docs/OBSERVABILITY.md for the metric name catalog.
#ifndef TRILLIONG_OBS_METRICS_H_
#define TRILLIONG_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tg::obs {

/// Global observability switch. Phase-boundary recording (a handful of
/// counter adds per run) is always on — it is free relative to the phases it
/// measures. Per-scope / per-edge instrumentation (trace spans, degree
/// histograms) only runs while enabled, so a run that never asks for a
/// report pays one predictable branch per scope and no clock syscalls.
bool Enabled();
void SetEnabled(bool on);

/// Coarse run-phase marker ("partition", "generate", "idle", ...) for cheap
/// liveness surfaces — the admin server's `GET /healthz` reports it without
/// touching the registry. `phase` must be a string literal (the pointer is
/// stored, not copied); the drivers in core/ and cluster/ set it at phase
/// boundaries.
void SetCurrentPhase(const char* phase);
const char* CurrentPhase();

/// Monotonic event counter. Relaxed atomics: totals are read only at report
/// time, after the threads that wrote them have been joined.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Double-valued gauge with set / accumulate / max-merge updates (seconds of
/// simulated wire time accumulate; per-machine peaks max-merge).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }

  void Max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Snapshot of a Histogram at report time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// bucket[i] counts observations with bit_width == i (bucket 0: value 0;
  /// bucket i >= 1: values in [2^(i-1), 2^i)). Trailing zero buckets are
  /// trimmed.
  std::vector<std::uint64_t> buckets;

  /// Estimates the q-quantile (q in [0, 1]) by locating the bucket holding
  /// the rank and interpolating linearly inside its [2^(i-1), 2^i) range,
  /// clamped to the observed min/max. Exact at the resolution of log2
  /// buckets — off by at most a factor of 2, usually much less.
  double Quantile(double q) const;
};

/// Log-scale histogram of non-negative integer samples (latencies in
/// nanoseconds, sizes in bytes or edges). Power-of-two buckets match how the
/// paper reasons about scale sweeps: one bucket per doubling.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit_width(v) in [0, 64]

  void Observe(std::uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    ObserveMin(v);
    ObserveMax(v);
  }

  /// Bucket index of a value: its bit width (0 for value 0).
  static int BucketOf(std::uint64_t v) { return std::bit_width(v); }

  /// Inclusive lower bound of bucket `b` (0, 1, 2, 4, 8, ...).
  static std::uint64_t BucketLowerBound(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  HistogramSnapshot Snapshot() const;
  std::uint64_t count() const;
  void Reset();

 private:
  friend class HistogramBatch;

  void ObserveMin(std::uint64_t v) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void ObserveMax(std::uint64_t v) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Single-thread accumulator in front of a shared Histogram, for hot loops
/// that observe far more often than anyone reads: Observe is plain
/// arithmetic, and FlushTo folds the pending observations in with one
/// atomic add per touched bucket. After a flush the histogram holds exactly
/// what observing each value directly would have produced.
class HistogramBatch {
 public:
  void Observe(std::uint64_t v) {
    ++buckets_[Histogram::BucketOf(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }

  /// Moves the pending observations into `h` and empties the batch.
  void FlushTo(Histogram* h);

 private:
  std::uint64_t buckets_[Histogram::kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// One structured event: something that happened at a specific point in the
/// run, as opposed to an aggregate. Used by tg::fault to record the injected
/// schedule (every crash/delay/retry with its machine and boundary ordinal)
/// so a RunReport proves *which* faults a run survived, not just how many.
struct Event {
  std::string kind;          ///< dotted name, e.g. "fault.crash"
  int machine = -1;          ///< simulated machine, -1 when not applicable
  std::uint64_t ordinal = 0; ///< per-machine boundary ordinal (1-based)
  std::string detail;        ///< free-form, e.g. the rule that fired
};

/// Installs (or, with nullptr, removes) a process-wide observer invoked for
/// every RecordEvent — including events dropped from the bounded report
/// buffer, so live consumers (the admin server's SSE stream) see the full
/// firehose. Called on the recording thread with no registry lock held; the
/// observer must be fast and must not record events itself.
void SetEventObserver(std::function<void(const Event&)> observer);

/// Aggregated statistics of one trace-span path (see obs/span.h).
struct SpanStats {
  std::uint64_t count = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// The process-wide metric store. Metric objects are created on first use
/// and live for the lifetime of the registry, so hot paths may cache the
/// returned pointers. Reset() zeroes values in place — cached pointers stay
/// valid.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Aggregates one finished span occurrence. `machine` is the simulated
  /// machine tag active on the recording thread (-1 when untagged).
  void RecordSpan(const std::string& path, int machine, double wall_seconds,
                  double cpu_seconds);

  /// Per-simulated-machine stat table (peak bytes, CPU seconds, ...).
  /// SetMachineStat overwrites; MaxMachineStat keeps the maximum.
  void SetMachineStat(int machine, const std::string& key, double value);
  void MaxMachineStat(int machine, const std::string& key, double value);

  /// Appends one structured event (capped at kMaxEvents to bound report
  /// size under pathological chaos plans; overflow is counted in the
  /// "obs.events_dropped" counter).
  void RecordEvent(Event event);
  static constexpr std::size_t kMaxEvents = 1024;

  // --- Report-time snapshots. ---
  std::map<std::string, std::uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;
  std::map<std::string, HistogramSnapshot> HistogramValues() const;
  /// Keyed by (span path, machine tag).
  std::map<std::pair<std::string, int>, SpanStats> SpanValues() const;
  std::map<int, std::map<std::string, double>> MachineStats() const;
  std::vector<Event> EventValues() const;

  /// Zeroes every counter/gauge/histogram in place (previously returned
  /// pointers remain valid) and clears span and machine tables. Used by
  /// tests and by harnesses that emit one report per bench row.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::pair<std::string, int>, SpanStats> spans_;
  std::map<int, std::map<std::string, double>> machines_;
  std::vector<Event> events_;
};

/// Shorthands against the global registry (the form the hot layers use).
inline Counter* GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}
inline Gauge* GetGauge(const std::string& name) {
  return Registry::Global().GetGauge(name);
}
inline Histogram* GetHistogram(const std::string& name) {
  return Registry::Global().GetHistogram(name);
}

/// Creates (at zero) the canonical metrics every run report promises —
/// docs/OBSERVABILITY.md documents the list — so reports from runs that
/// never touch a subsystem (e.g. a shuffle-free single-process run) still
/// contain its keys with explicit zeros.
void PreregisterCanonicalMetrics();

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_METRICS_H_
