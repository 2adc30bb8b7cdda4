// obs/sampler.h — background time-series sampling. A single thread wakes on
// a fixed interval, snapshots selected counters/gauges (plus process RSS)
// from the global registry, and appends each value to an in-memory
// TimeSeries that Sampler::ExportTo embeds into a RunReport. The same tick
// optionally drives a live `edges/sec + ETA` progress line (gen_cli
// --progress) and, when tracing is on, emits counter events so the sampled
// curves appear in Perfetto alongside the span timeline.
//
// The sampler only *reads* metrics; the instrumented hot paths are untouched
// and keep their disabled-cost guarantee.
#ifndef TRILLIONG_OBS_SAMPLER_H_
#define TRILLIONG_OBS_SAMPLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_report.h"

namespace tg::obs {

/// One sampler tick, as fanned out to the process-wide tick listener (see
/// SetTickListener). The admin server's `GET /events` SSE stream is built
/// from these: everything a live dashboard needs without touching the
/// registry itself.
struct TickSample {
  double t_seconds = 0.0;        ///< seconds since sampling started
  double edges = 0.0;            ///< cumulative progress.edges
  double edges_per_sec = 0.0;    ///< smoothed over a ~2s window
  double eta_seconds = -1.0;     ///< -1 when no target is known
  double mem_used_bytes = 0.0;   ///< mem.used_bytes gauge at this tick
  double mem_headroom_pct = 0.0; ///< mem.headroom_pct gauge at this tick
  double drift_ms = 0.0;         ///< observed minus nominal tick interval
};

/// Installs (or, with nullptr, removes) the process-wide tick listener,
/// invoked from the sampling thread on every tick of every running Sampler.
/// The listener must not call back into the Sampler.
void SetTickListener(std::function<void(const TickSample&)> listener);

struct SamplerOptions {
  int interval_ms = 100;

  /// Counters sampled each tick (as doubles, cumulative values).
  std::vector<std::string> counters = {
      "progress.edges",
      "cluster.shuffled_bytes",
  };
  /// Gauges sampled each tick. The mem.* pressure gauges are refreshed from
  /// the live MemoryBudget registry at the top of every tick (see
  /// obs::PublishMemoryGauges), so the series shows pressure building, not
  /// just the final peak.
  std::vector<std::string> gauges = {
      "mem.peak_machine_bytes",
      "mem.used_bytes",
      "mem.headroom_pct",
      "net.simulated_seconds",
  };
  /// Also record the process resident set size as `proc.rss_bytes`
  /// (Linux /proc/self/statm; absent elsewhere).
  bool sample_rss = true;

  /// Mirror every sample onto trace counter tracks when tracing is enabled.
  bool emit_trace_counters = true;

  /// Print a `\r`-refreshed progress line to stderr: edges so far, rate,
  /// and — when `progress_target_edges` is nonzero — percent done and ETA.
  /// Reads the `progress.edges` counter (live, bumped per generated scope).
  bool print_progress = false;
  std::uint64_t progress_target_edges = 0;
  /// Edges already durable before this process started (a --resume run's
  /// committed journal chunks). Added to the live counter for the progress
  /// percentage and ETA so resumed runs start at their true completion
  /// fraction instead of 0% — without it the first ETA estimates treat the
  /// whole remaining target as if it had to be generated at a rate measured
  /// from a cold start. The recorded `progress.edges` series stays raw
  /// (this-process edges only), and the rate is delta-based so the constant
  /// offset cancels.
  std::uint64_t progress_initial_edges = 0;
};

/// Process RSS in bytes (0 where /proc is unavailable).
std::uint64_t CurrentRssBytes();

class Sampler {
 public:
  explicit Sampler(const SamplerOptions& options);
  ~Sampler();  ///< stops (joining the thread) if still running

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Spawns the sampling thread and records the t=0 sample.
  void Start();

  /// Records one final sample, stops and joins the thread. Idempotent.
  void Stop();

  /// The collected series so far (call after Stop for a complete set).
  std::map<std::string, TimeSeries> Series() const;

  /// Merges the collected series into `report->series`.
  void ExportTo(RunReport* report) const;

  /// ExportTo against the most recently started, still-live sampler (no-op
  /// when none is active). The admin server's `GET /report.json` uses this
  /// to embed the mid-run time series without owning the sampler.
  static void ExportActiveTo(RunReport* report);

  /// Copies the last `max_points` of series `name` from the most recently
  /// started, still-live sampler (no-op leaving *t/*v empty when none is
  /// active or the series does not exist). The OOM context hook uses this
  /// to attach the mem.headroom_pct tail to an OomReport.
  static void CopyActiveSeriesTail(const std::string& name,
                                   std::size_t max_points,
                                   std::vector<double>* t,
                                   std::vector<double>* v);

 private:
  void Loop();
  /// `drift_ms`: how far this tick landed from its nominal interval
  /// (0 for the boundary samples taken in Start/Stop).
  void SampleOnce(double t_seconds, double drift_ms);
  void PrintProgress(double t_seconds, double edges, double rate);

  SamplerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
  std::map<std::string, TimeSeries> series_;
  std::chrono::steady_clock::time_point start_time_;
  /// (t, edges) of the sample ~1s back, for a smoothed progress rate.
  std::vector<std::pair<double, double>> rate_window_;
};

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_SAMPLER_H_
