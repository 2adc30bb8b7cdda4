#include "obs/sampler.h"

#include <cstdio>
#include <unistd.h>

#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tg::obs {

namespace {

/// The most recently started, still-live sampler; CopyActiveSeriesTail reads
/// it so the OOM context hook can attach the headroom tail. Guarded by its
/// own mutex, always acquired *before* the sampler's mu_ (Start/Stop touch
/// it outside their mu_ critical sections to keep the order acyclic).
std::mutex g_active_mu;
Sampler* g_active_sampler = nullptr;

/// Process-wide tick fan-out (admin server SSE). Guarded separately from
/// the sampler's mu_; the listener is invoked with mu_ held, so it must not
/// call back into the Sampler (documented on SetTickListener).
std::mutex g_tick_mu;
std::function<void(const TickSample&)> g_tick_listener;

/// Formats an edge count compactly (1234567 -> "1.23M").
std::string HumanCount(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

}  // namespace

void SetTickListener(std::function<void(const TickSample&)> listener) {
  std::lock_guard<std::mutex> lock(g_tick_mu);
  g_tick_listener = std::move(listener);
}

std::uint64_t CurrentRssBytes() {
#ifdef __linux__
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long rss_pages = 0;
  int matched = std::fscanf(statm, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(statm);
  if (matched != 2) return 0;
  return static_cast<std::uint64_t>(rss_pages) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

Sampler::Sampler(const SamplerOptions& options) : options_(options) {
  if (options_.interval_ms < 1) options_.interval_ms = 1;
}

Sampler::~Sampler() { Stop(); }

void Sampler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
    start_time_ = std::chrono::steady_clock::now();
    SampleOnce(0.0, 0.0);
    thread_ = std::thread(&Sampler::Loop, this);
  }
  std::lock_guard<std::mutex> active_lock(g_active_mu);
  g_active_sampler = this;
}

void Sampler::Stop() {
  {
    // Deregister first (and unconditionally) so the OOM hook can never race
    // a dying sampler; done before taking mu_ to keep lock order acyclic.
    std::lock_guard<std::mutex> active_lock(g_active_mu);
    if (g_active_sampler == this) g_active_sampler = nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  // One closing sample so the series always covers the full run, then
  // terminate the \r progress line cleanly.
  SampleOnce(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_time_)
                 .count(),
             0.0);
  if (options_.print_progress) std::fputc('\n', stderr);
}

void Sampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const double interval_s = options_.interval_ms / 1000.0;
  double last_t = 0.0;  // the Start() sample anchors the first interval
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
    // Observed tick drift: how far this wakeup landed from nominal. SSE
    // consumers read the gauge to judge how much to trust tick timestamps
    // (a thrashing host shows large positive drift).
    const double drift_ms = (t - last_t - interval_s) * 1000.0;
    last_t = t;
    SampleOnce(t, drift_ms);
  }
}

void Sampler::SampleOnce(double t_seconds, double drift_ms) {
  // Caller holds mu_ (Start/Stop) or the Loop's unique_lock.
  // Refresh the mem.* pressure gauges from the live budgets so the tick
  // captures current usage/headroom, not a stale end-of-phase value.
  PublishMemoryGauges();
  auto record = [&](const std::string& name, double value) {
    TimeSeries& ts = series_[name];
    ts.interval_seconds = options_.interval_ms / 1000.0;
    ts.t.push_back(t_seconds);
    ts.v.push_back(value);
    if (options_.emit_trace_counters && TraceEnabled()) {
      TraceCounter(InternTraceName(name), value);
    }
  };

  Registry& registry = Registry::Global();
  registry.GetGauge("obs.sampler.drift_ms")->Set(drift_ms);
  double edges = 0.0;
  for (const std::string& name : options_.counters) {
    double value =
        static_cast<double>(registry.GetCounter(name)->value());
    if (name == "progress.edges") edges = value;
    record(name, value);
  }
  // Resume credit: chunks a previous process already committed count as done
  // work from t=0. The series above recorded the raw counter; everything
  // rate/ETA/percent below sees the shifted value (the offset is constant,
  // so the windowed rate is unaffected).
  edges += static_cast<double>(options_.progress_initial_edges);
  for (const std::string& name : options_.gauges) {
    record(name, registry.GetGauge(name)->value());
  }
  if (options_.sample_rss) {
    std::uint64_t rss = CurrentRssBytes();
    if (rss != 0) record("proc.rss_bytes", static_cast<double>(rss));
  }

  // Smoothed rate over a sliding ~2s window (whole run while young); shared
  // by the --progress line and the tick fan-out.
  rate_window_.emplace_back(t_seconds, edges);
  while (rate_window_.size() > 2 &&
         t_seconds - rate_window_.front().first > 2.0) {
    rate_window_.erase(rate_window_.begin());
  }
  const double dt = t_seconds - rate_window_.front().first;
  const double de = edges - rate_window_.front().second;
  const double rate = dt > 0 ? de / dt : 0.0;

  if (options_.print_progress) PrintProgress(t_seconds, edges, rate);

  std::function<void(const TickSample&)> listener;
  {
    std::lock_guard<std::mutex> tick_lock(g_tick_mu);
    listener = g_tick_listener;
  }
  if (listener) {
    TickSample tick;
    tick.t_seconds = t_seconds;
    tick.edges = edges;
    tick.edges_per_sec = rate;
    if (options_.progress_target_edges > 0 && rate > 0) {
      tick.eta_seconds =
          (static_cast<double>(options_.progress_target_edges) - edges) / rate;
    }
    tick.mem_used_bytes = registry.GetGauge("mem.used_bytes")->value();
    tick.mem_headroom_pct = registry.GetGauge("mem.headroom_pct")->value();
    tick.drift_ms = drift_ms;
    listener(tick);
  }
}

void Sampler::PrintProgress(double t_seconds, double edges, double rate) {
  char line[160];
  if (options_.progress_target_edges > 0) {
    double target = static_cast<double>(options_.progress_target_edges);
    double pct = target > 0 ? 100.0 * edges / target : 0.0;
    double eta = rate > 0 ? (target - edges) / rate : 0.0;
    std::snprintf(line, sizeof(line),
                  "\r[progress] %s/%s edges (%.0f%%)  %s edges/s  ETA %.1fs   ",
                  HumanCount(edges).c_str(), HumanCount(target).c_str(), pct,
                  HumanCount(rate).c_str(), eta);
  } else {
    std::snprintf(line, sizeof(line),
                  "\r[progress] %s edges  %s edges/s  t=%.1fs   ",
                  HumanCount(edges).c_str(), HumanCount(rate).c_str(),
                  t_seconds);
  }
  std::fputs(line, stderr);
  std::fflush(stderr);
}

void Sampler::CopyActiveSeriesTail(const std::string& name,
                                   std::size_t max_points,
                                   std::vector<double>* t,
                                   std::vector<double>* v) {
  std::lock_guard<std::mutex> active_lock(g_active_mu);
  if (g_active_sampler == nullptr) return;
  std::lock_guard<std::mutex> lock(g_active_sampler->mu_);
  auto it = g_active_sampler->series_.find(name);
  if (it == g_active_sampler->series_.end()) return;
  const TimeSeries& ts = it->second;
  std::size_t start = ts.t.size() > max_points ? ts.t.size() - max_points : 0;
  t->assign(ts.t.begin() + static_cast<std::ptrdiff_t>(start), ts.t.end());
  v->assign(ts.v.begin() + static_cast<std::ptrdiff_t>(start), ts.v.end());
}

std::map<std::string, TimeSeries> Sampler::Series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

void Sampler::ExportTo(RunReport* report) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, ts] : series_) {
    report->series[name] = ts;
  }
}

void Sampler::ExportActiveTo(RunReport* report) {
  std::lock_guard<std::mutex> active_lock(g_active_mu);
  if (g_active_sampler == nullptr) return;
  g_active_sampler->ExportTo(report);
}

}  // namespace tg::obs
