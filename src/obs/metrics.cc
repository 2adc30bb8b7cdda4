#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/mem.h"

namespace tg::obs {

namespace {
std::atomic<bool> g_enabled{false};
std::atomic<const char*> g_phase{"idle"};

std::mutex g_event_observer_mu;
std::function<void(const Event&)> g_event_observer;

void NotifyEventObserver(const Event& event) {
  std::function<void(const Event&)> observer;
  {
    std::lock_guard<std::mutex> lock(g_event_observer_mu);
    observer = g_event_observer;
  }
  if (observer) observer(event);
}
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void SetCurrentPhase(const char* phase) {
  g_phase.store(phase == nullptr ? "idle" : phase, std::memory_order_relaxed);
}

const char* CurrentPhase() { return g_phase.load(std::memory_order_relaxed); }

void SetEventObserver(std::function<void(const Event&)> observer) {
  std::lock_guard<std::mutex> lock(g_event_observer_mu);
  g_event_observer = std::move(observer);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  int last_nonzero = -1;
  std::vector<std::uint64_t> buckets(kNumBuckets, 0);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += buckets[i];
    if (buckets[i] != 0) last_nonzero = i;
  }
  buckets.resize(last_nonzero + 1);
  snap.buckets = std::move(buckets);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation in [0, count-1], then walk buckets until
  // the cumulative count covers it.
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(before + in_bucket)) {
      if (b == 0) return 0.0;  // bucket 0 holds exactly the zeros
      const double lo = static_cast<double>(
          Histogram::BucketLowerBound(static_cast<int>(b)));
      const double hi = 2.0 * lo;
      // Fractional position inside the bucket (midpoint of the covered
      // observation), interpolated over the bucket's value range.
      const double frac = (rank - static_cast<double>(before) + 0.5) /
                          static_cast<double>(in_bucket);
      double value = lo + frac * (hi - lo);
      value = std::min(value, static_cast<double>(max));
      value = std::max(value, static_cast<double>(min));
      return value;
    }
    before += in_bucket;
  }
  return static_cast<double>(max);
}

std::uint64_t Histogram::count() const {
  std::uint64_t c = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    c += buckets_[i].load(std::memory_order_relaxed);
  }
  return c;
}

void HistogramBatch::FlushTo(Histogram* h) {
  if (count_ == 0) return;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (buckets_[i] != 0) {
      h->buckets_[i].fetch_add(buckets_[i], std::memory_order_relaxed);
    }
  }
  h->sum_.fetch_add(sum_, std::memory_order_relaxed);
  h->ObserveMin(min_);
  h->ObserveMax(max_);
  *this = HistogramBatch();
}

void Histogram::Reset() {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // intentionally leaked
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void Registry::RecordSpan(const std::string& path, int machine,
                          double wall_seconds, double cpu_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& stats = spans_[{path, machine}];
  stats.count += 1;
  stats.wall_seconds += wall_seconds;
  stats.cpu_seconds += cpu_seconds;
}

void Registry::SetMachineStat(int machine, const std::string& key,
                              double value) {
  std::lock_guard<std::mutex> lock(mu_);
  machines_[machine][key] = value;
}

void Registry::MaxMachineStat(int machine, const std::string& key,
                              double value) {
  std::lock_guard<std::mutex> lock(mu_);
  double& slot = machines_[machine][key];
  if (value > slot) slot = value;
}

std::map<std::string, std::uint64_t> Registry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> Registry::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) out[name] = hist->Snapshot();
  return out;
}

std::map<std::pair<std::string, int>, SpanStats> Registry::SpanValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<int, std::map<std::string, double>> Registry::MachineStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return machines_;
}

void Registry::RecordEvent(Event event) {
  // The dropped counter is fetched before taking mu_ (GetCounter locks it).
  Counter* dropped = GetCounter("obs.events_dropped");
  bool stored = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < kMaxEvents) {
      events_.push_back(event);
      stored = true;
    }
  }
  if (!stored) dropped->Increment();
  // Fan out after releasing mu_ — live consumers (SSE) get every event,
  // even ones the bounded report buffer dropped.
  NotifyEventObserver(event);
}

std::vector<Event> Registry::EventValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void Registry::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, counter] : counters_) counter->Reset();
    for (auto& [name, gauge] : gauges_) gauge->Reset();
    for (auto& [name, hist] : histograms_) hist->Reset();
    spans_.clear();
    machines_.clear();
    events_.clear();
  }
  // Only meaningful for the global registry, but harmless otherwise: a reset
  // starts a fresh run, which must not inherit a stale mem.oom section.
  ClearLastOom();
}

void PreregisterCanonicalMetrics() {
  Registry& r = Registry::Global();
  // Generation (core/avs_generator*, core/trilliong.cc).
  r.GetCounter("avs.edges_generated");
  r.GetCounter("avs.scopes_generated");
  r.GetCounter("avs.recvec_builds");
  r.GetCounter("avs.cdf_evaluations");
  r.GetGauge("avs.recvec_levels");
  r.GetGauge("avs.max_degree");
  r.GetGauge("mem.peak_scope_bytes");
  // Table-driven edge kernel (core/prefix_tables.h, rng/lane_rng.h; see
  // docs/PERFORMANCE.md).
  r.GetCounter("kernel.table_scopes");
  r.GetCounter("kernel.table_edges");
  r.GetCounter("kernel.dedup_wiped_words");
  r.GetGauge("kernel.simd_lanes");
  // Work-stealing scheduler (core/scheduler.cc).
  r.GetCounter("sched.chunks");
  r.GetCounter("sched.steals");
  r.GetGauge("sched.imbalance");
  // Simulated cluster (cluster/sim_cluster.h, cluster/network_model.h).
  r.GetCounter("cluster.shuffled_bytes");
  r.GetCounter("cluster.control_bytes");
  r.GetCounter("net.transfers");
  r.GetCounter("net.charged_bytes");
  r.GetGauge("net.simulated_seconds");
  r.GetGauge("mem.peak_machine_bytes");
  // Memory pressure + OOM forensics (obs/mem.h; per-machine mem.m<id>.* and
  // per-tag mem.tag.<tag>.peak_bytes gauges appear dynamically).
  r.GetCounter("mem.oom_events");
  r.GetGauge("mem.used_bytes");
  r.GetGauge("mem.headroom_pct");
  // External sort (storage/external_sorter.h).
  r.GetCounter("sort.records_added");
  r.GetCounter("sort.records_delivered");
  r.GetCounter("sort.runs_spilled");
  r.GetCounter("sort.bytes_spilled");
  r.GetCounter("sort.merge_passes");
  // Output formats (format/).
  r.GetCounter("format.tsv.bytes_written");
  r.GetCounter("format.adj6.bytes_written");
  r.GetCounter("format.csr6.bytes_written");
  // Storage I/O transport (storage/file_io.h, storage/async_writer.h).
  // bytes_written/flushes count producer->backend handoffs of graph bytes
  // (obs files bypass the transport), so they compare exactly between
  // --io=sync and --io=async runs; writer_stall_ms is
  // wall-clock (skipped by DiffOptions::Defaults).
  r.GetCounter("io.bytes_written");
  r.GetCounter("io.flushes");
  r.GetCounter("io.writer_stall_ms");
  r.GetGauge("io.inflight_bytes");
  // Live progress + tracing (obs/sampler.h, obs/trace.h).
  r.GetCounter("progress.edges");
  r.GetCounter("trace.dropped_events");
  // Sampling profiler (prof/profiler.h). Zero unless --profile / TG_PROFILE
  // armed the sampler; wall-clock-dependent, so skipped by bench diffs.
  r.GetCounter("prof.samples");
  r.GetCounter("prof.dropped_samples");
  // Sampler tick drift (obs/sampler.cc): observed minus nominal interval of
  // the latest tick, so SSE consumers can judge timestamp quality.
  r.GetGauge("obs.sampler.drift_ms");
  // Fault injection + recovery (fault/fault_injector.h, core/scheduler.cc,
  // cluster/sim_cluster.h). Zero in a fault-free run by construction.
  r.GetCounter("fault.injected");
  r.GetCounter("fault.injected_crashes");
  r.GetCounter("fault.injected_delays");
  r.GetCounter("fault.injected_io_failures");
  r.GetCounter("fault.retries");
  r.GetCounter("fault.recovered_chunks");
  r.GetCounter("fault.machines_lost");
  r.GetCounter("fault.shuffle_retransfers");
  r.GetCounter("fault.retransferred_bytes");
  r.GetCounter("cluster.worker_failures");
  r.GetGauge("fault.recovery_seconds");
  r.GetGauge("fault.delay_seconds");
  // Install the memory-observability hooks (span stack / headroom tail on
  // OomReport, per-tag peak fold-in on budget destruction): any binary that
  // preregisters gets OOM attribution without extra wiring.
  EnableMemoryObservability();
}

}  // namespace tg::obs
